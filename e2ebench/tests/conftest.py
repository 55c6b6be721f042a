import sys
from pathlib import Path

# The benchmark's modules import each other by bare name (run.py puts
# their directory on the path); do the same for the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
