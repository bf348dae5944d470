"""Benchmark harness for the fgv compiler and its compile service.

The harness drives only the built `fgvc` executable, through its command
line and its newline-delimited JSON service protocol, so it measures the
system the way a user sees it and does not depend on internal OCaml APIs.
"""
