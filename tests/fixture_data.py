"""The stored fixtures under ``src/rigidconvex/data``, read by path."""
import json
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "src" / "rigidconvex" / "data"
FIXTURE_NAMES = (
    "cubic-curve", "tv-screen", "capricorn", "bean",
    "elliptic-cubic", "fermat-pencil", "cayley-cubic",
)


def load_fixture(name: str) -> dict:
    return json.loads((DATA / (name.replace("-", "_") + ".json")).read_text())
