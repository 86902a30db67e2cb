"""Top-level API surface and CLI tests."""

import json

import pytest

import repro
from repro.cli import EXPERIMENTS, build_parser, main


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_headline_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quick_composition(self):
        node = repro.Node(seed=1)
        pool = repro.CXLPool(1 << 33, node.latency)
        platform = repro.TrEnvPlatform(node, pool)
        platform.register_function(repro.function_by_name("DH"))

        def driver():
            r = yield from platform.invoke("DH")
            return r

        r = node.sim.run_process(driver())
        assert r.e2e > 0


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig21" in out
        assert "table1" in out

    def test_every_experiment_registered(self):
        expected = {"table1", "table2", "table3", "fig3", "fig4", "fig10",
                    "fig17", "fig18b", "fig19", "fig20", "fig21", "fig22",
                    "fig23", "fig24", "fig25", "fig26", "chaos"}
        assert set(EXPERIMENTS) == expected

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_fig10_runs_and_emits_json(self, capsys):
        assert main(["fig10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "IR" in payload
        assert payload["IR"]["read_only_ratio"] == pytest.approx(0.9,
                                                                 abs=0.02)

    def test_fig21_runs(self, capsys):
        assert main(["fig21"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["JS"]["mm-template"]["startup"] < 0.02

    def test_table3_runs(self, capsys):
        assert main(["table3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blackjack"]["input_tokens"] == 1690
