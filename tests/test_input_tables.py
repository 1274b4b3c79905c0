"""Every file a run or tool reads back, against its table.

What each writer writes reads back through its table, and every key it
writes has a row. One generated case per row corrupts the file: the key
dropped, given each other JSON type, or given a value just outside its
domain. Each case, and each malformed file beside them, is a usage error
(exit 2) that names the file, warns of nothing and writes nothing.
"""
import json
import os
import shutil

import pytest

from koopext.cli import main
from koopext.core import _REQUIRED, _json_type
from koopext.dictionary import (_dictionary_from_centers, _spec_tables, dictionary_from_spec,
                                identity_dictionary, rbf_dictionary)
from koopext.dynamics import (_SNAPSHOTS_TABLE, make_system, read_snapshots, sample_snapshots,
                              write_snapshots)
from koopext.experiments import ExperimentConfig, _config_table
from koopext.regression import _MODEL_TABLE, fit_edmd, load_model, save_model

from domain_edges import OUTSIDE


def spec_table(spec: dict) -> dict:
    return _spec_tables(spec["dim"])[spec["kind"]]


def required(table: dict) -> set:
    return {key for key, (default, _) in table.items() if default is _REQUIRED}


@pytest.fixture(scope="module")
def snaps():
    return sample_snapshots(make_system("linear2d"), 40, 0.2, ((-2, -2), (2, 2)), seed=4)


class TestWritersAndTablesAgree:
    def test_config(self, tmp_path):
        path = tmp_path / "config.json"
        ExperimentConfig("lin5d_check", seed=3, out_dir="o", params={"grid_n": 11}).to_json(path)
        assert sorted(json.loads(path.read_text())) == sorted(_config_table())
        assert ExperimentConfig.from_json(path).params == {"grid_n": 11}

    def test_snapshots(self, tmp_path, snaps):
        stem = str(tmp_path / "snapshots")
        write_snapshots(stem, snaps)
        # the table's keys, then the sampler's record, read back as metadata
        written = json.loads((tmp_path / "snapshots.json").read_text())
        assert sorted(written) == sorted([*_SNAPSHOTS_TABLE, *snaps.metadata])
        assert read_snapshots(stem).metadata == snaps.metadata

    def test_model(self, tmp_path, snaps):
        stem = str(tmp_path / "model")
        save_model(stem, fit_edmd(snaps, identity_dictionary(2)))
        assert sorted(json.loads((tmp_path / "model.json").read_text())) == sorted(_MODEL_TABLE)
        assert load_model(stem).dt == snaps.dt

    def test_dictionary_specs(self, snaps):
        # identity, and Gaussians with k-means centers (the spec keeps the
        # seed) or with given centers, as the bridge families tile them
        specs = [json.loads(json.dumps(dic.spec)) for dic in (
            identity_dictionary(2), rbf_dictionary(snaps, 5, bandwidth=0.3, seed=7),
            _dictionary_from_centers([[0.0, 1.0], [1.0, 0.0]], 0.5))]
        for spec in specs:
            assert required(spec_table(spec)) <= set(spec) <= set(spec_table(spec))
            assert dictionary_from_spec(spec).spec == spec
        assert {key for spec in specs for key in spec} == {
            key for table in _spec_tables(2).values() for key in table}


# a value of each JSON type; each number lies outside every file domain
SAMPLES = {"boolean": True, "integer": -7, "number": -0.5, "string": "x", "array": [],
           "object": {}, "null": None}
DROP = object()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Snapshot files from `simulate`, and the identity and rbf models `fit`
    makes of them, by kind."""
    base = tmp_path_factory.mktemp("written")
    assert main(["simulate", "--system", "linear2d", "--n-pairs", "40", "--seed", "4",
                 "--out", str(base / "snapshots")]) == 0
    for kind in ("identity", "rbf"):
        assert main(["fit", "--snapshots", str(base / "snapshots" / "snapshots"), "--dict", kind,
                     "--n-centers", "5", "--out", str(base / kind)]) == 0
    return base


# each table's command, file and the key its record sits under (None: the
# file itself), with a record of the JSON types its writer writes
RECORDS = {
    ("config", "config.json", None): (
        _config_table(), {"experiment": "lin5d_check", "seed": 0, "out_dir": "o", "params": {},
                          "schema_version": 1}),
    ("snapshots", "snapshots.json", None): (_SNAPSHOTS_TABLE, {"dt": 0.2}),
    ("identity", "model.json", None): (
        _MODEL_TABLE, {"dictionary": {}, "dt": 0.2, "fit_residual": 0.0}),
    ("identity", "model.json", "dictionary"): (
        _spec_tables(2)["identity"], {"kind": "identity", "dim": 2}),
    ("rbf", "model.json", "dictionary"): (
        _spec_tables(2)["rbf_gaussian"], {"kind": "rbf_gaussian", "dim": 2, "bandwidth": 0.3,
                                          "centers": [[0.0, 0.0]], "seed": 0}),
}


def edit_key(under, key, value):
    def edit(path):
        record = json.loads(path.read_text())
        target = record[under] if under else record
        if value is DROP:
            del target[key]
        else:
            target[key] = value
        path.write_text(json.dumps(record))
    return edit


def generated_cases():
    for (kind, file, under), (table, record) in RECORDS.items():
        for key, (default, domain) in table.items():
            values = [DROP] if default is _REQUIRED else []
            values += [sample for name, sample in SAMPLES.items()
                       if name != _json_type(record[key]) and not (default is None
                                                                   and sample is None)]
            values += OUTSIDE[domain.says]
            for value in values:
                shown = ("drop" if value is DROP else "10**400" if value == 10**400
                         else json.dumps(value))
                yield pytest.param(kind, file, edit_key(under, key, value), key,
                                   id=f"{file}:{under or ''}.{key}={shown}")


def replaced(data):
    def edit(path):
        if os.path.isdir(path):
            os.rmdir(path)
        path.write_bytes(data)
    return edit


def to_directory(path):
    os.remove(path)
    os.mkdir(path)


def cut_columns(n):
    def edit(path):
        rows = path.read_bytes().split(b"\r\n")
        path.write_bytes(b"\r\n".join(b",".join(row.split(b",")[:n]) for row in rows))
    return edit


def truncated(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


def ragged(path):
    rows = path.read_bytes().splitlines(keepends=True)
    rows[1] = b"0.5," + rows[1]
    path.write_bytes(b"".join(rows))


HAND_CASES = [
    # the first seven exited 3 before every file had its table
    pytest.param("identity", "model.json", edit_key(None, "dictionary", {"dim": 2}),
                 "dictionary holds no ['kind']", id="dictionary-without-kind"),
    pytest.param("identity", "model.json", edit_key(None, "dictionary", [1, 2]),
                 "dictionary must be a JSON object, got [1, 2]", id="dictionary-array"),
    pytest.param("identity", "model.json", edit_key("dictionary", "dim", "two"),
                 'dim must be an integer >= 1, got "two"', id="identity-dim-string"),
    pytest.param("identity", "model.json", edit_key("dictionary", "dim", True),
                 "dim must be an integer >= 1, got true", id="identity-dim-boolean"),
    pytest.param("rbf", "model.json", edit_key("dictionary", "centers", [[0.5, 0.5], [0.5]]),
                 "centers must be an array of rows of 2 finite numbers", id="rbf-ragged-centers"),
    pytest.param("identity", "model.json", edit_key(None, "fit_residual", "x"),
                 'fit_residual must be a finite nonnegative number, got "x"',
                 id="fit-residual-string"),
    pytest.param("config", "config.json", replaced(b'{"experiment": "lin5d_check",'),
                 "cannot read", id="config-truncated"),
    pytest.param("rbf", "model.json", edit_key("dictionary", "dim", 3),
                 "centers must be an array of rows of 3 finite numbers", id="rbf-dim-not-centers"),
    # a JSON array was reported as unknown config keys ['lin5d_check']
    pytest.param("config", "config.json", replaced(b'["lin5d_check"]'),
                 'must be a JSON object, got ["lin5d_check"]', id="config-array"),
    # a file that cannot be opened or decoded exited 3
    pytest.param("config", "config.json", to_directory, "cannot read", id="config-directory"),
    pytest.param("config", "config.json", replaced(b'\xff\xfe{"experiment": "lin5d_check"}'),
                 "cannot read", id="config-not-utf8"),
    pytest.param("identity", "model.json", truncated, "cannot read", id="model-truncated"),
    pytest.param("identity", "model.json", to_directory, "cannot read", id="model-directory"),
    pytest.param("identity", "model.json", replaced(b"\xff\xfe{}"), "cannot read",
                 id="model-not-utf8"),
    pytest.param("snapshots", "snapshots.json", truncated, "cannot read",
                 id="snapshots-json-truncated"),
    pytest.param("snapshots", "snapshots.json", to_directory, "cannot read",
                 id="snapshots-json-directory"),
    pytest.param("identity", "model_K.csv", to_directory, "is not a table of numbers",
                 id="K-directory"),
    pytest.param("identity", "model_K.csv", ragged, "is not a table of numbers", id="K-ragged"),
    pytest.param("snapshots", "snapshots.csv", ragged, "is not a table of numbers",
                 id="snapshots-ragged"),
    # a table of no rows leaked numpy's warning and named neither file nor cause
    pytest.param("identity", "model_K.csv", replaced(b""), "contained no data", id="K-empty"),
    pytest.param("snapshots", "snapshots.csv", replaced(b"x1,x2,y1,y2\r\n"), "contained no data",
                 id="snapshots-header-only"),
    pytest.param("snapshots", "snapshots.csv", replaced(b""), "input contained no data",
                 id="snapshots-empty"),
    pytest.param("snapshots", "snapshots.csv", cut_columns(3),
                 "holds 3 columns, but a snapshot row holds x and then y",
                 id="snapshots-odd-columns"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, file, edit, named", [*generated_cases(), *HAND_CASES])
def test_corrupt_input_is_a_usage_error_that_names_the_file(tmp_path, capsys, written, kind,
                                                            file, edit, named):
    out = tmp_path / "out"
    if kind == "config":
        ExperimentConfig("lin5d_check", out_dir=str(out)).to_json(tmp_path / "config.json")
        argv = ["run", "--config", str(tmp_path / "config.json")]
    elif kind == "snapshots":
        for name in ("snapshots.csv", "snapshots.json"):
            shutil.copy(written / "snapshots" / name, tmp_path)
        argv = ["fit", "--snapshots", str(tmp_path / "snapshots"), "--out", str(out)]
    else:
        for name in ("model.json", "model_K.csv"):
            shutil.copy(written / kind / name, tmp_path)
        argv = ["eig", "--model", str(tmp_path / "model"), "--out", str(out)]
    edit(tmp_path / file)
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path / file}" in err or f"error: cannot read {tmp_path / file}" in err
    assert named in err
    assert sorted(os.listdir(tmp_path)) == before and not out.exists()
