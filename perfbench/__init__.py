"""Host-time benchmark for reuseloop; run it with ``python3 perfbench/run.py``."""
