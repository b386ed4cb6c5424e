"""Tests for the command-line interface."""

import json
import pathlib
import re

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.errors import SimulationError

SCENARIOS = (
    pathlib.Path(__file__).resolve().parents[1] / "examples" / "scenarios"
)


def _run_mutated(name, keys, value):
    """argv factory: ``repro run`` on example ``name`` with one field set.

    ``json.dumps`` writes NaN and infinities as the ``NaN``/``Infinity``
    literals, which the scenario loader's ``json.loads`` reads back.
    """

    def argv(tmp_path):
        data = json.loads((SCENARIOS / name).read_text())
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return ["run", str(path)]

    return argv


NON_FINITE_INPUTS = [
    pytest.param(
        _run_mutated(
            "disaggregated.json",
            ("fleet", "interconnect", "hop_latency_s"),
            float("nan"),
        ),
        "fleet.interconnect.hop_latency_s",
        id="hop-latency-nan",
    ),
    pytest.param(
        _run_mutated(
            "disaggregated.json",
            ("tenants", 0, "traffic", "rate_per_s"),
            float("nan"),
        ),
        "tenants[0].traffic.rate_per_s",
        id="rate-nan",
    ),
    pytest.param(
        _run_mutated(
            "sessions.json",
            ("fleet", "prefix_cache", "capacity_gb"),
            float("inf"),
        ),
        "fleet.prefix_cache.capacity_gb",
        id="cache-capacity-infinity",
    ),
    pytest.param(
        lambda tmp_path: ["cluster", "--rate", "nan", "--requests", "8"],
        "tenants[0].traffic.rate_per_s",
        id="cluster-rate-nan",
    ),
]


#: (argv factory, message) pairs: user-input errors the CLI must report
#: as a one-line exit, not a traceback.
BAD_INPUTS = [
    pytest.param(
        lambda tmp_path: ["serve", "--batch", "0"],
        "--batch must be positive",
        id="serve-batch-0",
    ),
    pytest.param(
        lambda tmp_path: ["compare", "--batch", "0"],
        "--batch must be positive",
        id="compare-batch-0",
    ),
    pytest.param(
        lambda tmp_path: ["serve", "--spec", "0"],
        "speculation_length must be positive",
        id="serve-spec-0",
    ),
    pytest.param(
        lambda tmp_path: ["serve", "--model", "nope"],
        "unknown model 'nope'",
        id="serve-unknown-model",
    ),
    pytest.param(
        lambda tmp_path: ["serve", "--batch", "4096", "--model", "gpt3-175b"],
        "KV cache needs",
        id="serve-over-capacity",
    ),
    pytest.param(
        lambda tmp_path: ["compare", "--spec", "0"],
        "speculation_length must be positive",
        id="compare-spec-0",
    ),
    pytest.param(
        lambda tmp_path: ["calibrate", "--model", "nope"],
        "unknown model 'nope'",
        id="calibrate-unknown-model",
    ),
    pytest.param(
        lambda tmp_path: ["serve", "--seed", "-1"],
        "seed must be non-negative",
        id="serve-negative-seed",
    ),
    pytest.param(
        lambda tmp_path: ["compare", "--seed", "-1"],
        "seed must be non-negative",
        id="compare-negative-seed",
    ),
    pytest.param(
        lambda tmp_path: ["cluster", "--seed", "-1", "--requests", "8"],
        "seed: must be non-negative",
        id="cluster-negative-seed",
    ),
    pytest.param(
        _run_mutated("disaggregated.json", ("seed",), -1),
        "seed: must be non-negative",
        id="scenario-negative-seed",
    ),
]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.system == "papi"
        assert args.model == "llama-65b"
        assert args.batch == 16

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--system", "tpu-farm"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "llama-65b" in out
        assert "papi" in out

    def test_list_is_self_documenting(self, capsys):
        """repro list covers routers, sweep modes, and every scenario
        spec type with its fields."""
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "slo-slack" in out
        assert "fc-stacks" in out
        assert "core modes: scalar, vectorized " in out
        assert "ScenarioSpec" in out
        assert "TenantSpec" in out
        assert "p99_seconds" in out

    def test_serve_small(self, capsys):
        code = main([
            "serve", "--system", "papi", "--batch", "2", "--spec", "1",
            "--category", "general-qa", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tokens / second" in out
        assert "papi" in out

    def test_cluster_small(self, capsys):
        code = main([
            "cluster", "--replicas", "2", "--router", "intensity",
            "--requests", "8", "--rate", "16", "--max-batch", "4",
            "--category", "general-qa", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reschedules" in out
        assert "p99 latency (s)" in out
        assert "utilization" in out

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.replicas == 4
        assert args.router == "intensity"
        assert args.requests == 64
        assert args.step_cache is True
        assert args.moe_replicas == 0
        assert args.tlp_policy == "fixed"

    def test_cluster_mixed_moe_fleet(self, capsys):
        code = main([
            "cluster", "--replicas", "2", "--moe-replicas", "1",
            "--router", "min-cost", "--requests", "8", "--rate", "16",
            "--max-batch", "4", "--tlp-policy", "acceptance", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "moe" in out  # the MoE replica's model name
        assert "acceptance" in out
        assert "router cache hits" in out

    def test_cluster_moe_replicas_capped(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--replicas", "2", "--moe-replicas", "3",
                  "--requests", "4"])

    def test_cluster_negative_moe_replicas_rejected(self):
        with pytest.raises(SystemExit, match="non-negative"):
            main(["cluster", "--replicas", "4", "--moe-replicas", "-2",
                  "--requests", "4"])

    def test_sweep_moe_small(self, capsys, tmp_path):
        json_path = tmp_path / "moe.json"
        code = main([
            "sweep", "moe", "--experts", "8", "--topk", "2",
            "--expert-ffn", "1024", "--rlp", "1,4", "--tlp", "1,2",
            "--context", "512", "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "active_experts" in out
        assert json_path.exists()

    def test_sweep_tlp_small(self, capsys):
        code = main([
            "sweep", "tlp", "--values", "1,2", "--batch", "4",
            "--acceptance", "1.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "expected_tokens_per_iter" in out

    def test_cluster_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--router", "coin-flip"])

    def test_cluster_flags_build_equivalent_scenario(self):
        """The flag path is sugar for a single-tenant ScenarioSpec."""
        from repro.cli import scenario_from_cluster_args

        args = build_parser().parse_args([
            "cluster", "--replicas", "3", "--moe-replicas", "1",
            "--router", "min-cost", "--requests", "8", "--seed", "3",
        ])
        spec = scenario_from_cluster_args(args)
        spec.validate()
        assert spec.fleet.total_replicas == 3
        assert spec.fleet.replicas[0].workload.moe is not None
        assert spec.fleet.replicas[1].workload is None
        assert spec.routing.policy == "min-cost"
        assert len(spec.tenants) == 1
        assert spec.tenants[0].slo.admission == "admit"

    def test_run_scenario_file(self, capsys, tmp_path):
        scenario = tmp_path / "two_tenant.json"
        scenario.write_text("""
        {
          "name": "cli-two-tenant",
          "fleet": {"replicas": [{"count": 2, "max_batch_size": 8}]},
          "tenants": [
            {"name": "interactive",
             "traffic": {"category": "general-qa", "requests": 8,
                         "rate_per_s": 8.0},
             "slo": {"p99_seconds": 6.0, "admission": "reject"}},
            {"name": "batch",
             "traffic": {"category": "general-qa", "requests": 8,
                         "rate_per_s": 8.0}}
          ],
          "routing": {"policy": "slo-slack"}
        }
        """)
        out_json = tmp_path / "result.json"
        code = main(["run", str(scenario), "--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-tenant SLO report" in out
        assert "interactive" in out
        assert "attainment" in out
        import json

        payload = json.loads(out_json.read_text())
        assert "slo_attainment" in payload["tenants"]["interactive"]
        assert payload["scenario"]["name"] == "cli-two-tenant"

    def test_run_missing_file_rejected(self):
        with pytest.raises(SystemExit, match="cannot read scenario file"):
            main(["run", "/nonexistent/scenario.json"])

    def test_run_invalid_scenario_names_field_path(self, tmp_path):
        scenario = tmp_path / "bad.json"
        scenario.write_text('{"routing": {"policy": "coin-flip"}}')
        with pytest.raises(SystemExit, match="routing.policy"):
            main(["run", str(scenario)])

    @pytest.mark.parametrize("argv,message", BAD_INPUTS)
    def test_bad_input_exits_with_message(self, argv, message, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(argv(tmp_path))
        assert isinstance(info.value.code, str)
        assert message in info.value.code

    def test_simulation_error_keeps_its_traceback(self, monkeypatch):
        def broken(args):
            raise SimulationError("invalid state")

        monkeypatch.setattr(cli, "cmd_serve", broken)
        with pytest.raises(SimulationError, match="invalid state"):
            main(["serve"])

    @pytest.mark.parametrize("argv,field", NON_FINITE_INPUTS)
    def test_non_finite_number_rejected_with_field_path(
        self, tmp_path, argv, field
    ):
        """NaN passes every range check and infinity overflowed the
        prefix-cache token count; both now fail validation by path."""
        with pytest.raises(
            SystemExit, match=re.escape(f"{field}: must be a finite number")
        ):
            main(argv(tmp_path))

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--batch", "2", "--spec", "1",
            "--category", "general-qa", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("a100-attacc", "attacc-only", "papi"):
            assert name in out
        assert "speedup" in out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--model", "llama-65b"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out

    def test_figures_fig7(self, capsys):
        assert main(["figures", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "4P1B" in out

    def test_figures_fig4(self, capsys):
        assert main(["figures", "fig4"]) == 0
        assert "attacc" in capsys.readouterr().out

    def test_figures_unknown(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err
