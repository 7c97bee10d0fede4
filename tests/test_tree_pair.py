"""The main paths of the scripts that compare a parent tree with the working
tree, with git, the export and the fresh processes of
scripts/bench_pair.py stubbed, and one fresh-process call unstubbed."""

import importlib.util
import os
import pathlib
import textwrap

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_results = _script("same_results")
newton_iterations = _script("newton_iterations")
code_lines = _script("code_lines")
# the one bench_pair module that every script imports
bench_pair = same_results.bench_pair


def _stub_trees(monkeypatch, results=None, export=None):
    """Replace git, the export and, given ``results`` keyed by side,
    call_in, which answers with the result of the side whose tree it runs
    in.  Return the exports and the calls, in order."""
    exported, called = [], []

    def exporting(ref, into):
        exported.append((ref, into))
        if export:
            export(into)

    def call_in(tree, script, func, *args):
        called.append((tree, func, args))
        return results["change" if tree == bench_pair.ROOT else "parent"]

    monkeypatch.setattr(bench_pair, "_git", lambda *args: f"id:{args[-1]}")
    monkeypatch.setattr(bench_pair, "_export", exporting)
    if results is not None:
        monkeypatch.setattr(bench_pair, "call_in", call_in)
    return exported, called


def _spy(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _digests(last):
    return [["flow", 1, 0, "aa", [1.0]], ["oracle", 1, 0, last, [2.0]]]


def test_same_results_runs_each_side_in_its_tree(monkeypatch, capsys):
    results = {"parent": _digests("bb"), "change": _digests("bb")}
    exported, called = _stub_trees(monkeypatch, results)
    compared = _spy(monkeypatch, same_results, "first_difference")
    assert same_results.main(["--parent", "HEAD~1", "--seeds", "1-2"]) == 0
    [(ref, parent_tree)] = exported
    assert ref == "HEAD~1" and not os.path.exists(parent_tree)
    assert called == [(parent_tree, "digests", (parent_tree, [1, 2])),
                      (bench_pair.ROOT, "digests", (bench_pair.ROOT, [1, 2]))]  # fmt: skip
    assert compared == [(results["parent"], results["change"])]
    assert "identical: 2 cases of pass 0 (flow, oracle; seeds 1-2) against id:HEAD~1" in capsys.readouterr().out


def test_same_results_fails_on_one_differing_digest(monkeypatch, capsys):
    _stub_trees(monkeypatch, {"parent": _digests("bb"), "change": _digests("cc")})
    assert same_results.main(["--parent", "HEAD~1"]) == 1
    out = capsys.readouterr().out
    assert "differs: workload oracle, seed 1, case 0" in out and "oracle: 1 of 1 cases differ" in out


def test_newton_iterations_runs_each_side_in_its_tree(monkeypatch, capsys):
    results = {"parent": [["newton", "seed 1 case 0", 9, None]],
               "change": [["newton", "seed 1 case 0", 7, None]]}  # fmt: skip
    exported, called = _stub_trees(monkeypatch, results)
    compared = _spy(monkeypatch, newton_iterations, "compare")
    assert newton_iterations.main(["--parent", "HEAD~1", "--seeds", "3"]) == 0
    [(ref, parent_tree)] = exported
    assert ref == "HEAD~1"
    assert called == [(parent_tree, "counts", (parent_tree, [3])),
                      (bench_pair.ROOT, "counts", (bench_pair.ROOT, [3]))]  # fmt: skip
    assert compared == [(results["parent"], results["change"])]
    out = capsys.readouterr().out
    assert "parent id:HEAD~1" in out and "newton: 9 -> 7" in out


def test_code_lines_counts_each_side_in_its_tree(monkeypatch, capsys):
    def export(into):
        package = pathlib.Path(into, code_lines.PACKAGE)
        package.mkdir(parents=True)
        (package / "only_in_parent.py").write_text("x = 1\ny = 2\n")

    exported, _ = _stub_trees(monkeypatch, export=export)
    counted = _spy(monkeypatch, code_lines, "count_tree")
    assert code_lines.main(["--parent", "HEAD~1"]) == 0
    [(ref, parent_tree)] = exported
    assert ref == "HEAD~1"
    assert sorted(counted) == sorted([(bench_pair.ROOT,), (parent_tree,)])
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert rows["only_in_parent.py"] == ["2", "0", "-2"]
    assert rows["equilibrium.py"][0] == "0" and rows["equilibrium.py"][1] != "0"


def test_call_in_runs_a_function_in_a_fresh_process(monkeypatch, tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(
        textwrap.dedent(
            """\
            import os

            def probe(names, extra):
                return {"cwd": os.getcwd(), "pid": os.getpid(), "extra": extra,
                        "threads": {name: os.environ.get(name) for name in names}}
            """
        )
    )
    tree = tmp_path / "tree"
    tree.mkdir()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    got = bench_pair.call_in(str(tree), str(script), "probe", sorted(bench_pair.THREADS), {"a": [1, 2.5]})
    assert got["pid"] != os.getpid()
    assert os.path.realpath(got["cwd"]) == os.path.realpath(tree)
    assert got["threads"] == bench_pair.THREADS
    assert got["extra"] == {"a": [1, 2.5]}
