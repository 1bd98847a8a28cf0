import pytest

from bernocchi import formulas


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Keep every test away from the user's real cache directory."""
    monkeypatch.setenv("BERNOCCHI_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


@pytest.fixture
def replace_row(monkeypatch):
    """replace_row(fid, stand_in) makes stand_in the row's value everywhere.

    stand_in(n) returns the row's own value at index n (G_n for a Genocchi
    row) or raises.  The registry entry is replaced by a copy that evaluates
    stand_in and, where the row has a sweep, sweeps it too, so `compute`,
    `bench`, `evaluate_all` and `verify` all read the stand-in.
    """

    def replace(fid, stand_in):
        row = formulas._REGISTRY[fid]

        def sweep(max_n):
            for n in range(max_n + 1):
                if formulas.is_applicable(fid, n):
                    value = stand_in(n)
                    yield n, formulas.bernoulli_from_genocchi(n, value) if row.genocchi else value

        stand_in_row = row._replace(evaluate=stand_in, sweep=None if row.sweep is None else sweep)
        monkeypatch.setitem(formulas._REGISTRY, fid, stand_in_row)

    return replace
