import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unreached.py"

TOY = '''"""A toy module."""
import functools


@functools.lru_cache
def cached(a):
    return a


def sign(x):
    global SEEN
    try:
        if x < 0:
            return "negative"
        elif x == 0:
            pass
    except ValueError:
        raise
    return ("positive"
            "!")
'''

TEST = '''from cred.toy import cached, sign


def test_toy():
    assert sign(1) == "positive!"
    assert cached(3) == 3
'''


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)


def test_prints_each_statement_that_never_ran(tmp_path):
    (tmp_path / "src" / "cred").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "cred" / "__init__.py").write_text("")
    (tmp_path / "src" / "cred" / "toy.py").write_text(TOY)
    (tmp_path / "tests" / "test_toy.py").write_text(TEST)
    proc = run(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-4:] == [
        'src/cred/toy.py:14: return "negative"',
        "src/cred/toy.py:16: pass",
        "src/cred/toy.py:18: raise",
        "3 statements unreached",
    ]


def test_failing_tests_give_pytests_exit_code(tmp_path):
    (tmp_path / "src" / "cred").mkdir(parents=True)
    (tmp_path / "src" / "cred" / "__init__.py").write_text("X = 1\n")
    test = tmp_path / "test_fails.py"
    test.write_text("import cred\n\n\ndef test_fails():\n    assert cred.X == 2\n")
    proc = run(tmp_path, "--", "-q", "-p", "no:cacheprovider", test)
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1] == "0 statements unreached"


def test_no_modules_is_an_error(tmp_path):
    proc = run(tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == f"error: no modules under {tmp_path}/src/cred\n"
