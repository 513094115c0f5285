"""Reference implementations kept as executable specs for parity tests.

Each module here is an earlier, simpler version of a production path in
``src/``, or (``bnb``) a second solver for the same problem.  The production
path must give the same results; the tests that import these modules check
that it does.
"""
