from pathlib import Path

import pytest

from semwsdl import default_config, default_lexicon, load_corpus

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "fixtures" / "corpus"
SPECIAL_DIR = REPO_ROOT / "fixtures" / "special"
IMPORTS_DIR = REPO_ROOT / "fixtures" / "imports"
DERIVED_DIR = REPO_ROOT / "fixtures" / "derived"
IMPORTED_ELEMENT_DIR = REPO_ROOT / "fixtures" / "imported_element"
CONTENT_MODELS_DIR = REPO_ROOT / "fixtures" / "content_models"
ENCODINGS_DIR = REPO_ROOT / "fixtures" / "encodings"
LEXICON_PATH = REPO_ROOT / "src" / "semwsdl" / "data" / "lexicon.tsv"


@pytest.fixture(scope="session")
def corpus_paths():
    return sorted(str(p) for p in CORPUS_DIR.glob("*.wsdl"))


@pytest.fixture(scope="session")
def fixture_corpus(corpus_paths):
    return load_corpus(corpus_paths)


@pytest.fixture(scope="session")
def search_config():
    return default_config()


@pytest.fixture(scope="session")
def demo_lexicon():
    return default_lexicon()
