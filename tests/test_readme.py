"""The README runs as documented: the quick-start config, the Library example, the keys and the CLI."""

import argparse
import importlib
import re
from decimal import Decimal
from pathlib import Path

from aaopt.cli import build_parser
from aaopt.harness import CONFIG_KEYS, FAMILIES, config_from_mapping, format_summary, parse_config_text, run_experiment
from test_exports import public_modules

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks() -> tuple[str, str]:
    """The ``ini`` config block and the summary block that follows it."""
    text = README.read_text(encoding="utf-8")
    config = re.search(r"```ini\n(.*?)```", text, re.S)
    summary = re.search(r"prints a summary block.*?```\n(.*?)```", text[config.end():], re.S)
    return config.group(1), summary.group(1)


def test_readme_quick_start_summary_matches_the_run():
    config_text, summary_text = quick_start_blocks()
    kv = parse_config_text(config_text)
    kv.pop("run.trace")
    _, summary = run_experiment(config_from_mapping(kv))
    printed = dict(line.split("=", 1) for line in format_summary(summary).splitlines())
    documented = dict(line.split("=", 1) for line in summary_text.splitlines())
    assert set(documented) == set(printed)
    for key, shown in documented.items():
        if key == "elapsed_s":
            continue
        if isinstance(summary[key], float):
            # floats match to the digits the README prints
            rounded = Decimal(printed[key]).quantize(Decimal(shown))
            assert rounded == Decimal(shown), (key, printed[key], shown)
        else:
            assert printed[key] == shown, key


def test_readme_library_example_converges(capsys):
    code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    residuals = namespace["residuals"]
    assert residuals[-1] < 1e-10 and len(residuals) < 2000
    assert namespace["fit"].defined
    assert capsys.readouterr().out.split()[0] == str(len(residuals))


def test_readme_problem_key_table_matches_the_families():
    """Each cell is the family's default, "unset" for None, or "—" for a key it does not read."""
    text = README.read_text(encoding="utf-8")
    lines = text[text.index("| key | `lasso`"):].split("\n\n", 1)[0].splitlines()
    families = [cell.strip(" `") for cell in lines[0].strip("| ").split("|")[1:]]
    assert sorted(families) == sorted(FAMILIES)
    documented = {}
    for line in lines[2:]:
        key, *cells = (cell.strip(" `") for cell in line.strip().strip("|").split("|"))
        for family, cell in zip(families, cells):
            if cell != "—":
                documented[(family, key)] = None if cell == "unset" else float(cell.split()[0])
    assert documented == {(family, key): default for family, spec in FAMILIES.items()
                          for key, default in spec.defaults.items()}


def readme_section(heading: str) -> str:
    """The README text from ``heading`` to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index("\n" + heading + "\n") + len(heading) + 2
    return text[start:re.search(r"\n#+ ", text[start:]).start() + start]


def test_readme_config_key_section_names_exactly_the_config_keys():
    """Every ``section.key`` named in backticks, and each row of the problem table, is a key."""
    section = readme_section("### Config keys")
    named = set(re.findall(r"`((?:problem|algorithm|aa|run)\.\w+)`", section))
    table = section[section.index("| key |"):].split("\n\n", 1)[0].splitlines()[2:]
    named |= {"problem." + line.split("|")[1].strip(" `") for line in table}
    assert named == set(CONFIG_KEYS)


def test_readme_cli_block_lists_exactly_the_subcommands():
    block = re.search(r"```\n(.*?)```", readme_section("### CLI"), re.S).group(1)
    documented = [line.split()[1] for line in block.splitlines() if line.startswith("aaopt ")]
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)


def test_readme_counts_the_names_aaopt_exposes():
    """The Library section's count is the number of names in the public modules' ``__all__``."""
    documented = re.search(r"that makes (\d+) names", README.read_text(encoding="utf-8")).group(1)
    names = {name for mod in public_modules() for name in importlib.import_module("aaopt." + mod).__all__}
    assert int(documented) == len(names)
