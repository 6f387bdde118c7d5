import hashlib
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
CODE = [".", ":(exclude)*.md", ":(exclude)BENCH_*.json"]

#: stands in for credbench/run.py: a progress line, then the info and metrics lines
FAKE_RUN = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print("progress")
print(json.dumps({"workload": args["--workload"], "seed": 0,
                  "environment": {"blas_threads": 1}}))
print(json.dumps({"correct": True, "metrics": {"op_p50_s": {"value": float(args["--seconds"]),
                                                            "unit": "s"}}}))
"""


def make_checkout(root, fake=FAKE_RUN):
    (root / "fake_run.py").write_text(fake)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "fake_run.py"], "run_seconds": 40,
        "workloads": [{"name": "a"}, {"name": "b"}]}))


def record(root):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--label", "t", "--root", str(root)],
                          capture_output=True, text=True)
    return proc, root / "BENCH_t.json"


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t",
                           "-c", "commit.gpgsign=false", *args],
                          capture_output=True, check=True).stdout


def test_records_every_workload_once(tmp_path):
    make_checkout(tmp_path)
    proc, path = record(tmp_path)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(path.read_text())
    assert rec["label"] == "t" and rec["command"][1] == "fake_run.py"
    assert rec["commit"] is None and rec["diff_sha256"] is None and rec["run_seconds"] == 40
    assert [run["workload"] for run in rec["runs"]] == ["a", "b"]
    for run in rec["runs"]:
        assert run["info"] == {"workload": run["workload"], "seed": 0,
                               "environment": {"blas_threads": 1}}
        assert run["result"]["metrics"]["op_p50_s"]["value"] == 40.0


def test_failed_run_writes_nothing(tmp_path):
    make_checkout(tmp_path, fake="import sys; sys.exit(3)")
    proc, path = record(tmp_path)
    assert proc.returncode == 1 and "a exited 3" in proc.stderr
    assert not path.exists()


def test_hash_names_the_uncommitted_code(tmp_path):
    make_checkout(tmp_path)
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-qm", "base")
    base = git(tmp_path, "rev-parse", "HEAD").decode().strip()
    proc, path = record(tmp_path)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(path.read_text())
    assert rec["commit"] == base and rec["diff_sha256"] is None

    with open(tmp_path / "fake_run.py", "a") as handle:
        handle.write("# edited\n")
    (tmp_path / "NOTES.md").write_text("docs are not hashed\n")
    proc, path = record(tmp_path)
    assert proc.returncode == 0, proc.stderr
    dirty = json.loads(path.read_text())["diff_sha256"]
    assert dirty is not None

    git(tmp_path, "add", "fake_run.py")
    git(tmp_path, "commit", "-qm", "edit")
    diff = git(tmp_path, "diff", "--binary", "--full-index", base, "HEAD", "--", *CODE)
    assert hashlib.sha256(diff).hexdigest() == dirty

    (tmp_path / "new_module.py").write_text("")
    proc, _ = record(tmp_path)
    assert proc.returncode == 1 and "new_module.py" in proc.stderr
