"""Smoke tests: every script under scripts/ starts, every exported name
resolves, so a name deleted from the package cannot go unnoticed, and the
README's experiment recipes run as written."""
import ast
import importlib
import pkgutil
import re
import runpy
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import canskew
from canskew.attacks import AttackSpec, compute_delta_t0
from canskew.cli import main as cli_main
from canskew.clock import ClockSpec, MessageSchedule, NoiseModel, ppm, synthesize_trace
from canskew.curves import SuccessCurve
from canskew.formal import success_curve, take_snapshot
from canskew.harness import (ExperimentConfig, SyntheticSource, ade, consistency_study, epsilon_msi, monte_carlo_ps,
                             synthetic_warm_state)
from canskew.ids import IdsConfig, Variant
from canskew.traceio import parse_log

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = [info.name for info in pkgutil.iter_modules(canskew.__path__)]


def readme_recipes():
    """The canskew argv lists of each ``sh`` block of the README's
    "Experiment scripts" section that runs canskew, by the block's first
    command. ``for VAR in VALUES; do COMMAND; done`` runs COMMAND once per
    value."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    recipes = {}
    for block in re.findall(r"```sh\n(.*?)```", section, flags=re.S):
        commands = []
        for line in block.splitlines():
            loop = re.fullmatch(r"for (\w+) in ([^;]+); do (.+); done", line)
            lines = [line] if loop is None else [loop[3].replace(f"${loop[1]}", v) for v in loop[2].split()]
            commands += [shlex.split(command)[1:] for command in lines if command.startswith("canskew ")]
        if commands:
            recipes[commands[0][0]] = commands
    return recipes


def run_recipe(command, tmp_path, monkeypatch, capsys):
    """Run the README recipe that starts with ``canskew COMMAND`` in
    ``tmp_path`` through ``cli.main``; its argv lists and what each
    printed."""
    monkeypatch.chdir(tmp_path)
    recipe, printed = readme_recipes()[command], []
    for argv in recipe:
        assert cli_main(argv) == 0, argv
        printed.append(capsys.readouterr().out)
    return recipe, printed


def option(argv, name):
    return argv[argv.index(name) + 1]


def test_scripts_found():
    assert len(SCRIPTS) >= 2


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help_exits_0(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script.name, "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"canskew.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_resolve():
    tree = ast.parse(Path(canskew.__file__).read_text(encoding="utf-8"))
    exports = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert len(exports) > 20
    missing = [f"{module}.{attr}" for module, attr in exports
               if not hasattr(importlib.import_module(f"canskew.{module}"), attr) or not hasattr(canskew, attr)]
    assert missing == []


def test_success_sweep_writes_curves_that_read_back(tmp_path, monkeypatch, capsys):
    script = ROOT / "scripts" / "run_success_sweep.py"
    monkeypatch.setattr(sys, "argv", [script.name, "--warmup", "60", "--trials", "5", "--horizon", "5",
                                      "--out-dir", str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    printed = capsys.readouterr().out.splitlines()
    # the script's scenario at these sizes: 100 vs 150 ppm clocks with 25 us jitter, 100 ms period
    target = ClockSpec(skew=ppm(100.0), jitter_std=25e-6)
    source = SyntheticSource(MessageSchedule(0x185, 0.1), target, NoiseModel())
    for variant, grid, line in ((Variant.SOTA, np.arange(-40, 41) * 10e-6, 2),
                                (Variant.NTP, np.arange(-30, 31) * 1e-7, 5)):
        experimental, predicted = (SuccessCurve.from_csv((tmp_path / f"{variant.value}_{label}.csv").read_text())
                                   for label in ("experimental", "predicted"))
        for curve in (experimental, predicted):
            assert np.allclose(curve.grid, grid, rtol=1e-11, atol=0.0)
        assert (experimental.source, experimental.trials, experimental.horizon) == ("EXPERIMENTAL", 5, 5)
        assert (predicted.source, predicted.trials, predicted.horizon) == ("PREDICTED", 0, 5)
        cfg = ExperimentConfig(ids=IdsConfig(variant=variant), warmup_batches=60, trials=5, horizon=5,
                               grid=grid, seed=0)
        snapshot = take_snapshot(None, synthetic_warm_state(source, cfg), 61)
        assert predicted.to_csv() == success_curve(snapshot, grid, horizon=5).to_csv()
        assert printed[line].startswith(f"{variant.value}: ADE = {ade(predicted, experimental):.2f}%, ")


def test_readme_has_two_recipes():
    assert sorted(readme_recipes()) == ["generate", "sweep"]


def test_mistiming_recipe_writes_the_library_curve(tmp_path, monkeypatch, capsys):
    (sweep, _), printed = run_recipe("sweep", tmp_path, monkeypatch, capsys)
    # the study at its defaults: NTP, 100 ms period, 100 vs 150 ppm clocks
    # with 25 us jitter, warmup 1 000, 100 trials of 20 batches, +/-2 ms in 41 points
    period = 0.1
    target = ClockSpec(skew=ppm(100.0), jitter_std=25e-6)
    attacker = ClockSpec(skew=ppm(150.0), jitter_std=25e-6)
    attack = AttackSpec(delta_t0=compute_delta_t0(attacker.skew, target.skew, period), start_batch=1001,
                        attack_batches=20, attacker_clock=attacker, attacker_noise=NoiseModel())
    cfg = ExperimentConfig(ids=IdsConfig(variant=Variant.NTP), warmup_batches=1000, trials=100, horizon=20,
                           grid=np.linspace(-2e-3, 2e-3, 41), seed=0)
    curve = monte_carlo_ps(SyntheticSource(MessageSchedule(0x185, period), target, NoiseModel()), attack, cfg,
                           vary="mistiming")
    assert (tmp_path / option(sweep, "--out")).read_text() == curve.to_csv()
    assert curve.p_success[20] == 1.0
    assert printed[-1] == f"epsilon-MSI = {epsilon_msi(curve, 0.05):.6g} s\n" == "epsilon-MSI = 0.0004 s\n"


def test_consistency_recipe_writes_the_study_of_its_logs(tmp_path, monkeypatch, capsys):
    recipe, _ = run_recipe("generate", tmp_path, monkeypatch, capsys)
    *generates, study = recipe
    logs = [option(argv, "--out") for argv in generates]
    assert study[0] == "consistency" and len(logs) == 3 and study[-3:] == logs
    traces = [parse_log((tmp_path / name).read_bytes(), "candump") for name in logs]
    batch_sizes, config = [20, 40, 60, 80, 100], IdsConfig(variant=Variant.NTP)
    result = consistency_study(traces, 0x185, batch_sizes, config, 0.01)
    assert (tmp_path / option(study, "--out")).read_text() == result.to_csv()

    # the study on the float traces, before they are written to a 1 us log,
    # gives each sigma within 0.5 %, and SOTA's across-trace sigma within 2 %
    clock = ClockSpec(skew=ppm(100.0), jitter_std=100e-6)
    floats = consistency_study([synthesize_trace(MessageSchedule(0x185, 0.01), clock, NoiseModel(), 200_000, seed)
                                for seed in range(3)], 0x185, batch_sizes, config, 0.01)
    for variant, cases in result.cases.items():
        for case, want in zip(cases, floats.cases[variant], strict=True):
            rel = 0.02 if (variant, case.label) == ("sota", "trace") else 0.005
            assert case.sigma_ppm == pytest.approx(want.sigma_ppm, rel=rel), (variant, case.label)
