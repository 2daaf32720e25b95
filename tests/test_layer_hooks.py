"""The benchmark's tracer (``perfbench/spans.py``) times rolekit's layers
by replacing the module attributes listed in its ``LAYER_HOOKS``. A
refactor that stops calling one of those names would silently zero its
layer, so every subcommand the benchmark runs is driven here with each
hooked rolekit name wrapped in a call counter, and each must be called.
The hook table is only read."""

import importlib
import json
from pathlib import Path

from rolekit.cli import EXIT_OK, main
from reference import CYCLE3

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def rolekit_hooks(monkeypatch):
    """The (owner, attribute) pairs of ``LAYER_HOOKS`` that rolekit owns."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    return [(owner, attr) for owner, attr, *_ in spans.LAYER_HOOKS
            if owner.__name__.split(".")[0] == "rolekit"]


def counted(original, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    return wrapper


def test_every_hooked_rolekit_name_is_called(tmp_path, monkeypatch, capsys):
    counts = {}
    for owner, attr in rolekit_hooks(monkeypatch):
        key = f"{owner.__name__}.{attr}"
        counts[key] = 0
        monkeypatch.setattr(owner, attr,
                            counted(getattr(owner, attr), counts, key))
    assert len(counts) >= 10
    run = str(tmp_path / "run")
    spec, sweep = tmp_path / "spec.json", tmp_path / "sweep.json"
    spec.write_text(json.dumps({"B": CYCLE3, "sizes": [40, 40, 40],
                                "p_in": 0.9, "p_out": 0.05, "seed": 9}))
    sweep.write_text(json.dumps({"B": CYCLE3, "sizes": [20, 20, 20],
                                 "seed": 9, "grid_step": 0.5,
                                 "realizations": 1, "r": 3, "k": 3}))
    assert main(["generate", str(spec), "--out-prefix", run]) == EXIT_OK
    for mode in ("kmoving", "hierarchical"):
        assert main(["extract", f"{run}.edges.txt", "-r", "3", "--k-mode",
                     mode, "--out-prefix", f"{run}.{mode}"]) == EXIT_OK
    assert main(["nmi", f"{run}.kmoving.partition.csv",
                 f"{run}.truth.csv"]) == EXIT_OK
    assert main(["sweep", str(sweep), "--out",
                 str(tmp_path / "sweep.csv")]) == EXIT_OK
    assert main(["bench", "--sizes", "60", "--repetitions", "1",
                 "--out", str(tmp_path / "bench.csv")]) == EXIT_OK
    capsys.readouterr()
    assert [key for key, calls in counts.items() if not calls] == []
