"""Each `t2t` call loads only the scipy it runs, and a command that clusters
loads no `numpy.random`, `secrets` or hashlib, since k-means draws from its
own PCG64 stream. Only `synth` and the rf variant use `numpy.random`
(`describe` loads it through `scipy.special`).

Every check runs in a fresh interpreter, since the test process itself has
long since loaded scipy and hashlib. A probe prints the sorted modules it
ends with.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import tweet2traffic
from tweet2traffic.cli import main
from tweet2traffic.learn.serialize import bundle_to_json

SRC = str(Path(tweet2traffic.__file__).resolve().parents[1])


def run_fresh(body: str) -> list[str]:
    """The stdout lines of `body`, then the sorted modules it ends with as one
    JSON line, from a fresh interpreter."""
    probe = f"import json, sys\n{body}\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout.splitlines()


def modules_after(body: str) -> list[str]:
    """The modules loaded once `body` has run in a fresh interpreter."""
    return json.loads(run_fresh(body)[-1])


def scipy_modules_after(body: str) -> list[str]:
    """The scipy modules loaded once `body` has run in a fresh interpreter."""
    return [m for m in modules_after(body) if loaded([m], "scipy")]


def loaded(mods, package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in mods)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small synthetic world and a linear bundle trained on it."""
    tmp = tmp_path_factory.mktemp("footprint")
    sc = tmp / "sc.json"
    sc.write_text(json.dumps({"n_days": 20, "n_roads": 1, "segments_per_road": 2,
                              "n_users": 10, "n_tracts": 3}))
    assert main(["synth", "--synth-config", str(sc), "--seed", "4",
                 "--out", str(tmp / "data")]) == 0
    assert main(["train", "--data", str(tmp / "data"), "--seed", "2",
                 "--out", str(tmp / "m")]) == 0
    return tmp


def test_importing_the_cli_loads_no_scipy():
    assert scipy_modules_after("import tweet2traffic.cli") == []


def predict_probe(trained, out):
    """A one-day `t2t predict` of the trained bundle, as a probe body, and its day."""
    model = trained / "m" / "model.json"
    day = json.loads(model.read_text())["meta"]["train_end"]   # a day with weather
    data = str(trained / "data")
    return ("from tweet2traffic.cli import main\n"
            f"assert main(['predict', '--model', {str(model)!r}, '--data', {data!r},\n"
            f"             '--date', {day!r}, '--out', {str(out)!r}]) == 0"), day


def test_a_one_day_predict_loads_no_scipy(trained):
    out = trained / "p"
    body, day = predict_probe(trained, out)
    assert scipy_modules_after(body) == []
    assert (out / f"predictions_{day}.csv").exists()


def test_the_cli_import_and_a_one_day_predict_load_no_hashlib(trained):
    body, _day = predict_probe(trained, trained / "p_hashlib")
    for probe in ("import tweet2traffic.cli", body):
        mods = modules_after(probe)
        assert not any(loaded(mods, p) for p in ("hashlib", "_hashlib")), probe


RNG_AND_HASH = ("numpy.random", "secrets", "hashlib", "_hashlib")


@pytest.mark.parametrize("args", [["evaluate", "--models", "hm,sar"],
                                  ["evaluate", "--models", "t2t"],
                                  ["train"],
                                  ["cluster"]],
                         ids=["evaluate_hm_sar", "evaluate_t2t", "train", "cluster"])
def test_a_command_that_clusters_loads_no_numpy_random(args, trained):
    out = trained / ("rng_" + "_".join(args).replace(",", "_"))
    config = trained / "three_splits.json"      # the 20-day world is too short for ten
    config.write_text(json.dumps({"harness": {"n_outer": 3}}))
    argv = args + ["--data", str(trained / "data"), "--config", str(config),
                   "--seed", "2", "--out", str(out)]
    mods = modules_after("from tweet2traffic.cli import main\n"
                         f"assert main({argv!r}) == 0")
    assert [p for p in RNG_AND_HASH if loaded(mods, p)] == []
    assert any(out.iterdir())


def test_bundle_hash_hashes_in_a_fresh_interpreter():
    *out, mods = run_fresh("from tweet2traffic.learn.serialize import bundle_hash\n"
                           "print(bundle_hash({}, {}))")
    payload = bundle_to_json({}, {}, meta={}).encode("utf-8")
    assert out == [hashlib.sha256(payload).hexdigest()]
    assert "hashlib" in json.loads(mods)


def test_the_chi_squared_test_loads_scipy_special_only():
    mods = scipy_modules_after(
        "from tweet2traffic.clustering import chi_squared_cramers_v\n"
        "chi_squared_cramers_v([0, 0, 1, 1, 2], [0, 1, 1, 0, 1])")
    assert loaded(mods, "scipy.special")
    assert not any(loaded(mods, p) for p in ("scipy.stats", "scipy.sparse", "scipy.linalg"))


def linalg_modules(mods) -> list[str]:
    return [m for m in mods if loaded([m], "scipy.linalg")]


def test_a_lasso_fit_loads_scipy_linalg_only():
    mods = scipy_modules_after(
        "import numpy as np\n"
        "from tweet2traffic.learn.optimizers import fit_lasso\n"
        "X = np.random.default_rng(0).normal(size=(20, 3))\n"
        "fit_lasso(X, X @ [1.0, 0.0, -2.0], alpha=0.1)")
    assert linalg_modules(mods) == ["scipy.linalg._fblas"]
    assert not any(loaded(mods, p) for p in ("scipy.stats", "scipy.sparse", "scipy.special"))


def test_t2t_train_loads_the_blas_extension_alone(trained):
    data, out = str(trained / "data"), str(trained / "m_fresh")
    mods = scipy_modules_after(
        "from tweet2traffic.cli import main\n"
        f"assert main(['train', '--data', {data!r}, '--seed', '2', '--out', {out!r}]) == 0")
    assert linalg_modules(mods) == ["scipy.linalg._fblas"]
    assert (trained / "m_fresh" / "model.json").exists()


# Prints a fit's weights, bias, sweep count and objective path as exact bits.
FIT_BITS = ("import json\n"
            "import numpy as np\n"
            "from tweet2traffic.learn.optimizers import fit_lasso\n"
            "rng = np.random.default_rng(3)\n"
            "X = rng.normal(size=(40, 10))\n"
            "y = X @ rng.normal(size=10) + rng.normal(size=40)\n"
            "m = fit_lasso(X, y, alpha=2.0)\n"
            "print(json.dumps([[float(w).hex() for w in m.weights], m.bias.hex(), m.n_iter,\n"
            "                  [float(o).hex() for o in m.objective_path]]))")

# The solver's four wrappers are those `scipy.linalg.blas` exports, from one module.
SAME_BLAS = ("import sys\n"
             "import scipy.linalg.blas as blas\n"
             "from tweet2traffic.learn.optimizers import _blas\n"
             "assert all(a is b for a, b in zip(_blas(), (blas.daxpy, blas.dcopy,\n"
             "                                            blas.ddot, blas.dscal)))\n"
             "assert sys.modules['scipy.linalg._fblas'] is blas._fblas")


@pytest.fixture(scope="module")
def fit_alone():
    """A fit's bits and modules from a process that never imports `scipy.linalg`."""
    *out, mods = run_fresh(FIT_BITS)
    assert "scipy.linalg" not in json.loads(mods)
    return out


@pytest.mark.parametrize("body", [FIT_BITS + "\n" + SAME_BLAS,
                                  "import scipy.linalg.blas\n" + FIT_BITS + "\n" + SAME_BLAS],
                         ids=["fit_then_import", "import_then_fit"])
def test_the_solver_and_scipy_linalg_share_one_blas_module(body, fit_alone):
    *out, mods = run_fresh(body)
    assert "scipy.linalg.blas" in json.loads(mods)
    assert out == fit_alone


def test_a_missing_blas_extension_names_the_scipy_version(tmp_path):
    out = run_fresh(
        "import scipy\n"
        f"scipy.__path__ = [{str(tmp_path)!r}]\n"
        "from tweet2traffic.learn.optimizers import _blas\n"
        "try:\n"
        "    _blas()\n"
        "except ImportError as exc:\n"
        "    print(exc)\n")
    assert out[0] == f"scipy {scipy.__version__} has no scipy.linalg._fblas extension"
