"""Command-line front end: simulate rounds, probe costs, size parameters."""

from __future__ import annotations

import click

from ..sampling import CheckParameters, max_expected_damage, pass_rate_F
from ..zkp.rangeproof import slot_shape
from .bench import PROBE_STAGES, measure_communication, probe_costs
from .config import SimulationConfig, desk_preset, deployment_preset
from .report import emit_message_log, emit_report, report_row, summary_row
from .simulate import run_simulation

_SUFFIX = {"k": 1_000, "m": 1_000_000}


def _parse_size(token: str) -> int:
    text = token.strip().lower()
    try:
        if text and text[-1] in _SUFFIX:
            size = int(float(text[:-1]) * _SUFFIX[text[-1]])
        else:
            size = int(text)
    except ValueError:
        raise click.BadParameter(f"{token!r} is not a size like 64, 1k or 2.5m") from None
    if size < 1:
        raise click.BadParameter(f"{token!r}: sizes must be positive")
    return size


def _slots(n: int) -> str:
    c, r = slot_shape(n)
    return f"{n} = {c}·2^{r}"


def _parse_sweep(text: str) -> tuple[str, list[int]]:
    try:
        var, values = text.split("=", 1)
    except ValueError:
        raise click.BadParameter("expected VAR=v1,v2,... e.g. d=1k,10k") from None
    var = var.strip()
    if var not in ("d", "k"):
        raise click.BadParameter(f"can only sweep d or k, not {var!r}")
    return var, [_parse_size(v) for v in values.split(",")]


@click.group()
def main() -> None:
    """Verified secure aggregation: simulator, benchmarks, parameter sizing."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--rounds", type=int, default=None, help="Override round count.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
@click.option("--deployment-scale", is_flag=True, help="Deployment-scale preset (slow).")
@click.option(
    "--transcripts",
    "write_log",
    is_flag=True,
    help="Also write messages.log, the replayable log of every client message.",
)
def simulate(config_path, seed, rounds, out_dir, deployment_scale, write_log) -> None:
    """Run aggregation rounds and write per-round reports."""
    from dataclasses import replace

    try:
        if config_path:
            config = SimulationConfig.from_yaml(config_path)
        else:
            config = deployment_preset() if deployment_scale else desk_preset()
        if seed is not None:
            config = replace(config, seed=seed)
        if rounds is not None:
            config = replace(config, rounds=rounds)
        if out_dir is not None:
            config = replace(config, out_dir=out_dir)
    except ValueError as err:  # SimulationConfig names the field it rejects
        raise click.UsageError(str(err)) from None

    reports = run_simulation(config)
    target = config.resolved_out_dir()
    written = emit_report(reports, config, target)
    if write_log:
        written.append(emit_message_log(reports, config, target))

    summary = summary_row([report_row(r) for r in reports])
    click.echo(
        f"{config.rounds} round(s), n={config.n}, d={config.d}, k={config.k}: "
        f"mean honest {summary['n_honest']}, "
        f"aggregate ok in {sum(r.aggregate_ok for r in reports)}/{len(reports)}"
    )
    for path in written:
        click.echo(f"  wrote {path}")


@main.command()
@click.option("--sweep", required=True, help="e.g. d=1k,10k,100k or k=16,32,64")
@click.option("--k", "k_fixed", type=click.IntRange(min=1), default=64, show_default=True)
@click.option("--d", "d_fixed", type=click.IntRange(min=1), default=256, show_default=True)
@click.option("--comm", is_flag=True, help="Also report exact per-client bytes.")
def bench(sweep, k_fixed, d_fixed, comm) -> None:
    """Group-operation counts per stage across a parameter sweep."""
    var, values = _parse_sweep(sweep)
    header = f"{'d':>10} {'k':>6} " + " ".join(f"{s:>16}" for s in PROBE_STAGES)
    click.echo(header)
    for v in values:
        d = v if var == "d" else d_fixed
        k = v if var == "k" else k_fixed
        row = probe_costs(d, k)
        cells = " ".join(f"{row.stage_total(s):>16}" for s in PROBE_STAGES)
        click.echo(f"{d:>10} {k:>6} {cells}")
        if comm:
            rep = measure_communication(d, k)
            click.echo(
                f"{'':>17} bytes/client: {rep.total_bytes} "
                f"(commit {rep.bundle_bytes}, proof {rep.proof_bytes}; "
                f"{rep.overhead_ratio:.3f}x of d*32)"
            )


@main.command()
@click.option("--k", type=int, required=True, help="Projection count.")
@click.option("--epsilon-log2", type=int, required=True, help="log2 of tail bound.")
@click.option("--d", type=int, required=True, help="Update dimension.")
@click.option("--M", "m_log2", type=int, required=True, help="log2 of scale M.")
@click.option("--B", "bound", type=float, default=1.0, show_default=True)
@click.option("--frac-bits", type=int, default=8, show_default=True)
def params(k, epsilon_log2, d, m_log2, bound, frac_bits) -> None:
    """Derived check parameters: gamma, B0, range widths and proof shapes,
    pass-rate table, worst damage."""
    epsilon = 2.0**epsilon_log2
    M = 1 << m_log2
    try:
        p = CheckParameters(
            n=1, m=0, d=d, k=k, epsilon=epsilon, M=M, B=bound, frac_bits=frac_bits
        )
    except ValueError as err:
        raise click.UsageError(str(err)) from None
    click.echo(f"k={k}  epsilon=2^{epsilon_log2}  d={d}  M=2^{m_log2}")
    click.echo(f"gamma  = {p.gamma:.6g}")
    click.echo(f"B0     = {p.b0}  ({p.b0.bit_length()} bits; b_enc={p.b_enc})")
    click.echo(f"b_ip   = {p.b_ip}  b_max = {p.b_max}  (derived from B0)")
    click.echo(
        f"range slots: sigma {_slots(p.b_ip * p.k_padded)}, mu {_slots(p.b_max)}"
    )
    click.echo("pass rate F(c):")
    for c in (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 2.0):
        click.echo(f"  c={c:<4} F={pass_rate_F(c, k, epsilon, d, M):.3e}")
    c_star, damage = max_expected_damage(k, epsilon, d, M)
    click.echo(f"max expected damage: {damage:.4f} * B at c* = {c_star:.4f}")


if __name__ == "__main__":
    main()
