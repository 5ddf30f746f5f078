"""The README's library example runs as written."""

import re
import shutil

from semwsdl import Concept

from conftest import CORPUS_DIR, IMPORTS_DIR, REPO_ROOT


def library_example() -> str:
    text = (REPO_ROOT / "README.md").read_text("utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    shutil.copy(IMPORTS_DIR / "main.wsdl", tmp_path / "a.wsdl")
    shutil.copy(CORPUS_DIR / "music_catalog.wsdl", tmp_path / "b.wsdl")
    shutil.copy(IMPORTS_DIR / "common.xsd", tmp_path / "common.xsd")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(library_example(), namespace)
    assert [d.source_id for d in namespace["corpus"].descriptions] == ["a.wsdl", "b.wsdl"]
    assert namespace["lexicon"].entries["user"] == Concept("Human")
    # re-annotating the written copy changes nothing
    assert b"modelReference" in namespace["annotated"]
    assert namespace["again"] == namespace["annotated"]
