"""RACE5xx fork-safety lint tests: synthetic violation trees plus the
blocking self-check over the real src/repro tree."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import concurrency
from repro.analysis.concurrency import lint_tree

pytestmark = pytest.mark.analysis


def _write_tree(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def _rules(report):
    return [d.rule_id for d in report.diagnostics]


class TestRace501GlobalMutation:
    def test_direct_global_mutation_in_task_fn(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                CACHE = {}

                def work(x):
                    CACHE[x] = x * 2
                    return CACHE[x]

                def submit():
                    return Task(work, (1,))
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn, args=()):
                        self.fn = fn
                        self.args = args
            """,
        })
        report = lint_tree(root, package="pkg")
        assert "RACE501" in _rules(report)
        assert not report.ok

    def test_mutation_through_callee_is_found(self, tmp_path):
        # The mutation sits one call-graph hop below the task function.
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                STATE = []

                def helper(x):
                    STATE.append(x)

                def work(x):
                    helper(x)
                    return x

                def submit():
                    return Task(work)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn, args=()):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert "RACE501" in _rules(report)

    def test_global_statement_rebind(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                COUNTER = 0

                def work():
                    global COUNTER
                    COUNTER = COUNTER + 1

                def submit():
                    return Task(work)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert "RACE501" in _rules(report)

    def test_race_ok_pragma_waives(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                MEMO = {}

                def work(x):
                    MEMO[x] = x  # race-ok: worker-local memo
                    return MEMO[x]

                def submit():
                    return Task(work)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert report.ok, [d.render() for d in report.diagnostics]

    def test_local_shadowing_is_not_flagged(self, tmp_path):
        # A local variable with a module-global's name is fine.
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                TABLE = {}

                def work(x):
                    TABLE = {}
                    TABLE[x] = 1
                    return TABLE

                def submit():
                    return Task(work)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert report.ok, [d.render() for d in report.diagnostics]


class TestRace502Payloads:
    def test_lambda_payload(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                def submit():
                    return Task(lambda x: x + 1)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert "RACE502" in _rules(report)

    def test_nested_function_payload(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                def submit():
                    def inner(x):
                        return x
                    return Task(inner)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert "RACE502" in _rules(report)


class TestRace503StoreLifecycle:
    def test_release_shard_in_task_code(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                def work(store):
                    store.release_shard()

                def submit():
                    return Task(work)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert "RACE503" in _rules(report)

    def test_unrelated_close_not_flagged(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                def work(fh):
                    fh.close()

                def submit():
                    return Task(work)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert "RACE503" not in _rules(report)


class TestRace504CounterResets:
    def test_reset_in_task_code(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task
                from pkg.stats import reset_search_stats

                def work():
                    reset_search_stats()

                def submit():
                    return Task(work)
            """,
            "stats.py": """
                def reset_search_stats():
                    pass
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        assert "RACE504" in _rules(report)


class TestSelfCheck:
    def test_src_repro_is_clean(self):
        # The blocking CI gate: the real tree must lint clean.
        report = lint_tree()
        assert report.ok, "\n".join(d.render() for d in report.diagnostics)

    def test_named_roots_and_owners_exist(self):
        # A renamed or deleted function would silently drop out of the
        # walk; every hard-coded name must resolve in the real tree.
        root = Path(concurrency.__file__).resolve().parent.parent
        index = concurrency._Index(root, "repro")
        named = concurrency._SERVICE_ROOTS | concurrency._PROTOCOL_OWNERS
        assert sorted(named - index.functions.keys()) == []

    def test_subjects_are_repo_relative_paths(self, tmp_path):
        root = _write_tree(tmp_path, {
            "__init__.py": "",
            "jobs.py": """
                from pkg.pool import Task

                STATE = {}

                def work(x):
                    STATE[x] = 1

                def submit():
                    return Task(work)
            """,
            "pool.py": """
                class Task:
                    def __init__(self, fn):
                        self.fn = fn
            """,
        })
        report = lint_tree(root, package="pkg")
        bad = report.diagnostics[0]
        assert bad.subject.endswith("jobs.py")
        assert bad.span is not None
