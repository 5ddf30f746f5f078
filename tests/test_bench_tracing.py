"""The benchmark's tracer still finds every name it wraps.

bench/tracing.py wraps names the package looks up at call time
(``cli.load_corpus``, ``explore.preprocess``, ...).  A rename, or a call
that bypasses the wrapped name, makes a traced run raise TraceError; this
test makes that show in the ordinary test run.
"""

import importlib.util

import pytest

from semwsdl import cli

from conftest import CORPUS_DIR, LEXICON_PATH, REPO_ROOT


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", REPO_ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("command", ["annotate", "ablate", "wordfreq"])
def test_traced_run_records_every_layer(command, tmp_path, capsys):
    argv = [command, "--input-paths", str(CORPUS_DIR), "--output-dir", str(tmp_path),
            "--lexicon-path", str(LEXICON_PATH)]
    with tracing.Tracer() as tracer:
        assert tracer.span(tracing.ROOT_SPAN, cli.run)(argv) == 0
    metrics = tracing.layer_metrics(tracer, command)
    assert metrics["lexicon.words_looked_up"] > 0
    capsys.readouterr()
