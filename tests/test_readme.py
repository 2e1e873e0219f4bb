"""The README runs as documented: the quick-start config and the Library example."""

import re
from decimal import Decimal
from pathlib import Path

from aaopt.harness import config_from_mapping, format_summary, parse_config_text, run_experiment

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
