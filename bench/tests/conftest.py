import sys
from pathlib import Path

# The benchmark's modules sit one directory up and are imported by bare name.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
