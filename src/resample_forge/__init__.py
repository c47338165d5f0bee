"""Shared-random-tape parallel resampling solver for local colouring constraints.

The pieces, bottom up: digraphs and dependency machinery (graph_core), the
constraint model (rule_engine), distance-sparse vertex partitions
(partitioner), counter-based shared symbol streams (tape), the parallel
resampling loop (mta_runner), witness forests with their recovery, grounding,
restriction, and counting oracles (landscape_lab), the exhaustive finite-tape
solver (derand), generators and file formats (instance_io), and the CLI (cli).
Import each name from its module; the package itself loads none of them.
"""

__version__ = "0.1.0"
