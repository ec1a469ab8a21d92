"""The README's examples, run as written, give the values the README states."""

import json
import re
from fractions import Fraction
from pathlib import Path

from gibbslab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced(lang: str) -> list[str]:
    """The bodies of the README's code blocks fenced as lang."""
    blocks, body = [], None
    for line in README.splitlines(keepends=True):
        if body is None:
            if line.startswith("```"):
                body, info = [], line[3:].strip()
        elif line.startswith("```"):
            if info == lang:
                blocks.append("".join(body))
            body = None
        else:
            body.append(line)
    return blocks


def heredoc(name: str) -> dict:
    """The JSON config a shell example writes to name."""
    (body,) = [m for block in fenced("sh")
               for m in re.findall(rf"cat > {re.escape(name)} <<'EOF'\n(.*?)\nEOF", block, re.S)]
    return json.loads(body)


def run(tmp_path, capsys, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([*argv, "--config", str(path)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    return out


def test_python_example_gives_its_stated_values():
    (code,) = fenced("python")
    ns: dict = {}
    exec(code, ns)
    stated = {expr.strip(): comment for expr, comment in
              (line.split("  # ", 1) for line in code.splitlines()
               if "  # " in line and not line.lstrip().startswith("#"))}
    assert stated == {
        "bitshift.cylinder_prob(ch, (0, 2))": "Fraction(1, 256)",
        "bitshift.is_admissible(ch, (0, 0)).admissible": "False: 00 never occurs",
        "weak_gibbs.single_site_kernel(wp, 1, tail).value": "0.5, radius 0.0",
    }
    assert eval("bitshift.cylinder_prob(ch, (0, 2))", ns) == Fraction(1, 256)
    assert eval("bitshift.is_admissible(ch, (0, 0)).admissible", ns) is False
    kernel = eval("weak_gibbs.single_site_kernel(wp, 1, tail)", ns)
    assert (kernel.value, kernel.radius) == (0.5, 0.0)


def test_cylinder_example_gives_its_stated_values(tmp_path, capsys):
    assert '`"prob": "1/256"` for the word (0,2), the conditional\n`"1/80"`' in README
    out = run(tmp_path, capsys, ["bs-cylinder"], heredoc("bs.json"))
    joint, conditional = json.loads(out)["results"]
    assert joint["y"] == [0, 2] and joint["prob"] == "1/256"
    assert conditional["given"] == [2] and conditional["conditional"] == "1/80"
    assert "witness_x" in joint and "witness_jitter" in joint


def test_probe_example_prints_the_shown_lines(tmp_path, capsys):
    shown = [line for line in fenced("")[0].splitlines() if line != "..."]
    assert "# config_hash=13e6d8379aae" in shown and "# limit=1/2" in shown
    assert shown[-1] == "12,1/2"
    lines = run(tmp_path, capsys, ["wg-converge"], heredoc("probe.json")).splitlines()
    # every shown line appears, in order, and the last one closes the output
    rest = iter(lines)
    assert all(line in rest for line in shown)
    assert lines[-1] == shown[-1]
