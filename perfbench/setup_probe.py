"""Time heavyseries set-up for one workload in this fresh process.

Usage: PYTHONPATH=src python3 perfbench/setup_probe.py <workload>
Prints the set-up seconds as one number.
"""

import sys

import workloads

if __name__ == "__main__":
    print(repr(workloads.setup(sys.argv[1])))
