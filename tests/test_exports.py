"""The package's exports: every name in ``kgprompt.__all__`` resolves."""

import kgprompt


def test_every_exported_name_resolves():
    missing = [name for name in kgprompt.__all__ if not hasattr(kgprompt, name)]
    assert missing == []
    assert len(set(kgprompt.__all__)) == len(kgprompt.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from kgprompt import *", namespace)
    assert set(kgprompt.__all__) <= set(namespace)
