import e6cs


def test_the_export_list_names_each_public_name_once():
    assert len(set(e6cs.__all__)) == len(e6cs.__all__)
    for name in e6cs.__all__:
        assert hasattr(e6cs, name), name
    namespace = {}
    exec("from e6cs import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(e6cs.__all__)
