"""Every input reader reads a file that starts with a UTF-8 byte-order mark
as it reads the same file without one."""

import json
import shutil

import pytest
import yaml

from newslens.config import load_config
from newslens.corpus import load_articles, load_polls
from newslens.fixture import generate_fixture
from newslens.sentiment import LEXICON_FILES, load_labels, load_lexicon
from newslens.vectorize import load_stopwords

BOM = "\ufeff".encode()


def bom_copy(src, dst):
    dst.write_bytes(BOM + src.read_bytes())
    return dst


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return generate_fixture(tmp_path_factory.mktemp("fixture"), 11)


def test_stoplist(files, tmp_path):
    plain = load_stopwords(files["stopwords"])
    assert "the" in plain
    assert load_stopwords(bom_copy(files["stopwords"], tmp_path / "stop.txt")) == plain


@pytest.mark.parametrize("name", LEXICON_FILES)
def test_lexicon_file(files, tmp_path, name):
    directory = files["config"].parent
    for other in LEXICON_FILES:
        shutil.copyfile(directory / other, tmp_path / other)
    bom_copy(directory / name, tmp_path / name)
    assert load_lexicon(tmp_path) == load_lexicon(directory)


def test_articles(files, tmp_path):
    entities = load_config(files["config"]).entities
    plain = load_articles(files["articles"], entities)
    assert load_articles(bom_copy(files["articles"], tmp_path / "a.jsonl"), entities) == plain


def test_polls(files, tmp_path):
    plain = load_polls(files["polls"])
    assert load_polls(bom_copy(files["polls"], tmp_path / "polls.csv")) == plain


def test_labels(tmp_path):
    plain = tmp_path / "labels.csv"
    plain.write_text("article_id,sentence_index,class\na1,0,positive\na2,3,neutral\n", "utf-8")
    labels = load_labels(plain)
    assert labels == {("a1", 0): "positive", ("a2", 3): "neutral"}
    assert load_labels(bom_copy(plain, tmp_path / "bom.csv")) == labels


@pytest.mark.parametrize("suffix", [".yaml", ".json"])
def test_config(files, suffix):
    # Beside the fixture's config, so its relative paths resolve alike.
    config = files["config"]
    plain = config.with_name(f"plain{suffix}")
    raw = yaml.safe_load(config.read_text(encoding="utf-8"))
    plain.write_text(yaml.safe_dump(raw) if suffix == ".yaml" else json.dumps(raw), "utf-8")
    bom = bom_copy(plain, config.with_name(f"bom{suffix}"))
    assert load_config(bom) == load_config(plain)
