"""The runnable examples keep working and use only current spellings.

Each example is loaded from ``examples/`` and its ``main()`` is run with
``DeprecationWarning`` raised as an error, so an example that drifts onto a
retired API fails here rather than in a reader's terminal.
"""

import importlib.util
import warnings
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shared_cache_portfolio_example_runs_warning_clean(capsys):
    example = _load_example("shared_cache_portfolio")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        example.main()
    output = capsys.readouterr().out
    assert "shared resynthesis cache backend: tcp" in output
    assert "fell back" not in output, "the shared store must come up, not degrade"
