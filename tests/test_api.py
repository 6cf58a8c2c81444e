"""The public names of the package."""

import liftedtrw as lt


def test_every_exported_name_resolves_once():
    assert len(lt.__all__) == len(set(lt.__all__))
    namespace = {}
    exec("from liftedtrw import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(lt.__all__)
