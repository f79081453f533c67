"""Command-line surface: one subcommand per pipeline stage plus ``run``.

Exit codes: 0 success, 2 parse error in an input file, 3 configuration
error (bad values, missing paths, CLI misuse), 4 evaluation error.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
from itertools import chain, repeat, starmap
from pathlib import Path

import click

from .classifier import ClassifierConfig, Normalization
from .errors import ConfigError, EvaluationError, HtksError, ParseError
from .evaluation import compare_reports, format_report
from .formats import (
    load_classifier_config,
    load_decisions,
    load_labels,
    load_report_json,
    load_script,
    write_decisions,
    write_labels,
    write_poses,
    write_report_json,
    write_report_text,
    write_session_json,
    _all_or_none,
    _pose_chunks,
)
from .pipeline import (
    REPORT_FORMATS,
    RunConfig,
    _classify_chunks,
    _score_decisions,
    evaluate_decisions,
    load_run_settings,
    run_pipeline,
)
from .pose import LABEL_ORDER
from .synth import SynthConfig, frame_blocks as synth_generate

_path_arg = click.Path(path_type=Path)


@click.group()
@click.option("--verbose", is_flag=True, help="Enable DEBUG logging.")
def cli(verbose: bool):
    """Classify body-keypoint frames into head/shoulders/knees/toes touches,
    score touch-response game sessions, and evaluate against ground truth."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="[%(levelname)s] %(name)s: %(message)s",
    )


def _classifier_overrides(command):
    options = [
        click.option("--rule1/--no-rule1", "enable_rule1", default=None,
                     help="Toggle the bent-torso short-circuit."),
        click.option("--rule2/--no-rule2", "enable_rule2", default=None,
                     help="Toggle the shoulder-distance bias."),
        click.option("--rule1-threshold", "rule1_threshold_ratio", type=float, default=None,
                     help="Head-hip threshold as a fraction of the reference scale."),
        click.option("--rule2-bias", "rule2_bias_ratio", type=float, default=None,
                     help="Shoulder bias as a fraction of the reference scale."),
        click.option("--normalization", type=click.Choice([m.value for m in Normalization]),
                     default=None, help="Reference-scale mode."),
    ]
    for option in reversed(options):
        command = option(command)
    return command


def _load_classifier(config_path) -> ClassifierConfig:
    """The classifier config in the YAML file ``config_path``, or the defaults."""
    return load_classifier_config(config_path) if config_path else ClassifierConfig()


def _merge_classifier(base: ClassifierConfig, overrides: dict) -> ClassifierConfig:
    """``base`` with every classifier flag the command line set."""
    updates = {key: value for key, value in overrides.items() if value is not None}
    return dataclasses.replace(base, **updates) if updates else base


@cli.command()
@click.option("--out-poses", type=_path_arg, required=True, help="Pose file to write.")
@click.option("--out-labels", type=_path_arg, required=True, help="Labels file to write.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--frames-per-class", type=int, default=100, show_default=True)
@click.option("--torso-length", type=float, default=300.0, show_default=True,
              help="Standing head-hip distance in pixels.")
@click.option("--jitter", type=float, default=0.0, show_default=True,
              help="Joint noise stddev as a fraction of torso length.")
@click.option("--confusable", is_flag=True,
              help="Emit toe frames with wrists midway between knees and ankles.")
def generate(out_poses, out_labels, seed, frames_per_class, torso_length, jitter, confusable):
    """Generate a labelled synthetic pose sequence."""
    try:
        config = SynthConfig(
            seed=seed,
            torso_length=torso_length,
            jitter_stddev_ratio=jitter,
            frames_per_class=frames_per_class,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    written = []  # (label, frame count) of each block, as write_poses takes it

    def coords():
        for label, block in synth_generate(config, confusable=confusable):
            written.append((label, len(block)))
            yield block

    with _all_or_none() as output:
        output(write_poses, out_poses, coords())
        output(write_labels, out_labels, enumerate(chain.from_iterable(starmap(repeat, written))))
    click.echo(f"wrote {sum(n for _, n in written)} frames to {out_poses} "
               f"and labels to {out_labels}")


@cli.command()
@click.option("--poses", "poses_path", type=_path_arg, required=True)
@click.option("--out", "out_path", type=_path_arg, required=True,
              help="Decisions CSV to write.")
@click.option("--config", "config_path", type=_path_arg, default=None,
              help="Classifier config YAML.")
@_classifier_overrides
def classify(poses_path, out_path, config_path, **overrides):
    """Classify every frame of a pose file."""
    if not poses_path.is_file():
        raise ConfigError(f"pose file does not exist: {poses_path}")
    config = _merge_classifier(_load_classifier(config_path), overrides)
    write_decisions(out_path, _classify_chunks(_pose_chunks(poses_path), config))
    click.echo(f"wrote decisions to {out_path}")


@cli.command()
@click.option("--decisions", "decisions_path", type=_path_arg, required=True)
@click.option("--labels", "labels_path", type=_path_arg, required=True)
@click.option("--out-json", type=_path_arg, default=None, help="Write the report as JSON.")
@click.option("--out-text", type=_path_arg, default=None, help="Write the rendered report.")
@click.option("--format", "style", type=click.Choice(REPORT_FORMATS), default="table",
              show_default=True)
def evaluate(decisions_path, labels_path, out_json, out_text, style):
    """Compare decisions against ground-truth labels."""
    for description, candidate in (("decisions", decisions_path), ("labels", labels_path)):
        if not candidate.is_file():
            raise ConfigError(f"{description} file does not exist: {candidate}")
    rep, skipped = evaluate_decisions(load_decisions(decisions_path), load_labels(labels_path))
    if skipped:
        click.echo(f"note: {skipped} frames had no ground truth and were skipped", err=True)
    click.echo(format_report(rep, style=style), nl=False)
    with _all_or_none() as output:
        if out_json:
            output(write_report_json, out_json, rep)
        if out_text:
            output(write_report_text, out_text, rep, style=style)


@cli.command()
@click.option("--decisions", "decisions_path", type=_path_arg, required=True)
@click.option("--script", "script_path", type=_path_arg, required=True)
@click.option("--out-json", type=_path_arg, default=None, help="Write the session result as JSON.")
@click.option("--config", "config_path", type=_path_arg, default=None,
              help="Classifier config YAML; its tie_break_order settles tied trials.")
def score(decisions_path, script_path, out_json, config_path):
    """Score a session script against per-frame decisions."""
    for description, candidate in (("decisions", decisions_path), ("script", script_path)):
        if not candidate.is_file():
            raise ConfigError(f"{description} file does not exist: {candidate}")
    tie_break_order = _load_classifier(config_path).tie_break_order
    script = load_script(script_path)
    result = _score_decisions(script, load_decisions(decisions_path), tie_break_order)
    for index, outcome in enumerate(result.per_trial):
        observed = outcome.observed_part.value if outcome.observed_part else "undecided"
        status = "correct" if outcome.correct else "wrong"
        click.echo(
            f"trial {index}: stated={outcome.stated_part.value} "
            f"required={outcome.required_part.value} observed={observed} -> {status}"
        )
    click.echo(
        f"score: {result.num_correct}/{result.num_trials} ({result.score_fraction:.2f})"
    )
    if out_json:
        write_session_json(out_json, result)


@cli.command()
@click.option("--report", "report_path", type=_path_arg, required=True,
              help="Report JSON produced by evaluate/run.")
@click.option("--compare", "compare_path", type=_path_arg, default=None,
              help="Second report; prints per-class deltas (second minus first).")
@click.option("--format", "style", type=click.Choice(REPORT_FORMATS), default="table",
              show_default=True)
def report(report_path, compare_path, style):
    """Render a stored report, or compare two reports."""
    if not report_path.is_file():
        raise ConfigError(f"report file does not exist: {report_path}")
    first = load_report_json(report_path)
    if compare_path is None:
        click.echo(format_report(first, style=style), nl=False)
        return
    if not compare_path.is_file():
        raise ConfigError(f"report file does not exist: {compare_path}")
    second = load_report_json(compare_path)
    delta = compare_reports(first, second)
    for label in LABEL_ORDER:
        click.echo(f"delta[{label.value}] = {delta.per_class[label]:+.2f}")
    click.echo(f"delta[overall] = {delta.overall:+.2f}")


@cli.command()
@click.option("--config", "config_path", type=_path_arg, default=None,
              help="Run config YAML; CLI flags override file values.")
@click.option("--poses", "poses_path", type=_path_arg, default=None)
@click.option("--labels", "labels_path", type=_path_arg, default=None)
@click.option("--script", "script_path", type=_path_arg, default=None)
@click.option("--out-dir", type=_path_arg, default=None,
              help="Output directory [default: htks_out].")
@click.option("--format", "style", type=click.Choice(REPORT_FORMATS), default=None,
              help="Rendered report style [default: table].")
@_classifier_overrides
def run(config_path, poses_path, labels_path, script_path, out_dir, style, **overrides):
    """Classify, evaluate and score in one go."""
    settings = load_run_settings(config_path) if config_path else {}
    poses = poses_path or settings.get("poses_path")
    if poses is None:
        raise ConfigError("a pose file is required (--poses or paths.poses in the config)")
    base = settings.get("classifier", ClassifierConfig())
    run_config = RunConfig(
        poses_path=poses,
        labels_path=labels_path or settings.get("labels_path"),
        script_path=script_path or settings.get("script_path"),
        out_dir=out_dir or settings.get("out_dir") or Path("htks_out"),
        classifier=_merge_classifier(base, overrides),
        report_format=style or settings.get("report_format", "table"),
    )
    result = run_pipeline(run_config)
    click.echo(f"decisions: {result.decisions_path} ({result.frames} frames)")
    if result.report is not None:
        click.echo(f"report: {result.report_path}")
        click.echo(f"overall accuracy: {result.report.overall_accuracy:.2f}")
    if result.session is not None:
        click.echo(f"session: {result.session_path}")
        click.echo(
            f"session score: {result.session.num_correct}/{result.session.num_trials}"
        )


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except ParseError as exc:
        click.echo(f"parse error: {exc}", err=True)
        return 2
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return 3
    except EvaluationError as exc:
        click.echo(f"evaluation error: {exc}", err=True)
        return 4
    except HtksError as exc:  # pragma: no cover - safety net
        click.echo(f"error: {exc}", err=True)
        return 4
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 3
    except click.ClickException as exc:
        exc.show()
        return 3


if __name__ == "__main__":
    sys.exit(main())
