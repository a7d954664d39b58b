import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from semannot.corpus import Concept, Document, Thesaurus


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "subprocess: run the command under test in its own process"
    )


@pytest.fixture
def rate_thesaurus() -> Thesaurus:
    """Two concepts where one phrase is a prefix of the other."""
    return Thesaurus(
        {
            "c1": Concept("c1", "interest rate", ("interest rates",)),
            "c2": Concept("c2", "rate"),
        }
    )


def make_doc(doc_id: str, title: str, labels: set[str], fulltext: str | None = None) -> Document:
    return Document(doc_id=doc_id, title=title, fulltext=fulltext, gold_labels=frozenset(labels))


@pytest.fixture
def tiny_corpus(rate_thesaurus) -> list[Document]:
    return [
        make_doc("d1", "interest rate hike", {"c1"}),
        make_doc("d2", "rate rate", {"c2"}),
        make_doc("d3", "inflation outlook", {"c1", "c2"}),
    ]
