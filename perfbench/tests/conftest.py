import sys
from pathlib import Path

# The benchmark's modules are scripts in perfbench/, not an installed package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
