"""The reach census' allowlist and argv list, checked statically.

``benchmarks/check_reach.py`` runs every command and the paper harness
and fails on a ``src/repro`` function that none of them enters unless
its allowlist names it.  Running it takes minutes, so CI does; these
checks need no run: every entry names a function that exists and gives
one reason, and the argv list reaches every subcommand.
"""

import importlib.util
from pathlib import Path


from repro.cli import COMMANDS

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "check_reach.py"
_SPEC = importlib.util.spec_from_file_location("check_reach", _PATH)
check_reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_reach)

FUNCTIONS = check_reach.defined_functions()


def test_every_entry_names_a_function_and_one_reason():
    bad = []
    for key, entry in check_reach.ALLOWLIST.items():
        if key not in FUNCTIONS:
            bad.append(f"{key}: no such function in src/repro")
            continue
        category, reason = entry
        if category not in check_reach.REASONS:
            bad.append(f"{key}: category {category!r} is not one of "
                       f"{check_reach.REASONS}")
        if not (isinstance(reason, str) and reason.strip()):
            bad.append(f"{key}: no reason given")
    assert not bad, "\n".join(bad)


def test_functions_are_found_with_their_first_line():
    path, first, lines = FUNCTIONS["repro.cli:main"]
    source = Path(path).read_text(encoding="utf-8").splitlines()
    assert source[first - 1].startswith("def main(")
    assert lines > 1


def test_decorated_functions_start_at_their_first_decorator():
    # co_firstlineno of a decorated function is its first decorator's.
    path, first, _lines = FUNCTIONS["repro.sim.core:Event.ok"]
    source = Path(path).read_text(encoding="utf-8").splitlines()
    assert source[first - 1].strip() == "@property"


def test_argvs_run_every_subcommand():
    run = {argv[0] for _code, argv in check_reach.ARGVS if argv}
    assert set(COMMANDS) <= run


def test_problems_name_each_kind_of_failure():
    functions = {"m:dead": ("p", 1, 3), "m:kept": ("p", 5, 2),
                 "m:live": ("p", 8, 2)}
    allow = {"m:kept": ("paper", "why"), "m:live": ("oracle", "why"),
             "m:gone": ("error", "why")}
    found = check_reach.problems(functions, reached={"m:live"},
                                 allowlist=allow)
    assert len(found) == 3
    assert found[0].startswith("unreached and not allowlisted: m:dead")
    assert found[1] == "allowlisted but reached: m:live"
    assert found[2] == "allowlisted but not in src/repro: m:gone"
