"""Unit tests for the repro-mis command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCommands:
    def test_datasets_lists_all_ten(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Facebook" in out
        assert "Clueweb12" in out

    def test_theory_prints_model_quantities(self, capsys):
        assert main(["theory", "--vertices", "50000", "--beta", "2.2"]) == 0
        out = capsys.readouterr().out
        assert "greedy_size" in out
        assert "sc_vertices_bound" in out

    def test_generate_solve_and_bound_workflow(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        assert main([
            "generate", str(path), "--model", "gnm",
            "--vertices", "200", "--edges", "500", "--seed", "3",
        ]) == 0
        assert path.exists()
        assert main(["solve", str(path), "--pipeline", "two_k_swap"]) == 0
        out = capsys.readouterr().out
        assert "two_k_swap" in out
        assert main(["bound", str(path)]) == 0
        assert "upper bound" in capsys.readouterr().out

    def test_solve_json_output(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "100", "--edges", "200"])
        capsys.readouterr()
        assert main(["solve", str(path), "--pipeline", "greedy", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "greedy"
        assert payload["size"] > 0

    def test_generate_plrg_model(self, tmp_path, capsys):
        path = tmp_path / "plrg.adj"
        assert main([
            "generate", str(path), "--model", "plrg",
            "--vertices", "1000", "--beta", "2.1", "--order", "id",
        ]) == 0
        assert "vertices" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--model", "gnm", "--vertices", "5", "--edges", "20"], "cannot place 20"),
            (["--model", "plrg", "--vertices", "0"], "must be positive"),
            (["--model", "gnm", "--vertices", "10", "--edges", "-1"], "non-negative"),
        ],
        ids=["gnm-too-many-edges", "plrg-no-vertices", "gnm-negative-edges"],
    )
    def test_generate_rejects_invalid_parameters(self, tmp_path, capsys, flags, message):
        path = tmp_path / "bad.adj"
        assert main(["generate", str(path)] + flags) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1
        assert not path.exists()

    def test_generate_dataset_standin(self, tmp_path, capsys):
        path = tmp_path / "dblp.adj"
        assert main([
            "generate", str(path), "--model", "dataset",
            "--dataset", "dblp", "--scale", "0.001",
        ]) == 0
        assert path.exists()

    def test_import_export_roundtrip(self, tmp_path, capsys):
        text_in = tmp_path / "edges.txt"
        text_in.write_text("# toy graph\n0 1\n1 2\n2 3\n3 0\n")
        adjacency = tmp_path / "toy.adj"
        text_out = tmp_path / "edges_out.txt"
        assert main(["import", str(text_in), str(adjacency), "--order", "id"]) == 0
        assert "4 vertices" in capsys.readouterr().out
        assert main(["export", str(adjacency), str(text_out)]) == 0
        assert "4 edges" in capsys.readouterr().out
        assert text_out.exists()

    def test_compare_runs_pipelines_and_comparators(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "150", "--edges", "300"])
        capsys.readouterr()
        assert main(["compare", str(path), "--max-rounds", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("greedy", "two_k_swap", "local_search", "dynamic_update"):
            assert name in out
        assert "in-memory" in out and "semi-external" in out

    def test_compare_memory_limit_reports_not_applicable(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "200", "--edges", "500"])
        capsys.readouterr()
        assert main([
            "compare", str(path),
            "--algorithms", "greedy,local_search,dynamic_update",
            "--memory-limit-bytes", "64", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["algorithm"]: row for row in rows}
        assert by_name["greedy"]["not_applicable"] is False
        assert by_name["local_search"]["not_applicable"] is True
        assert by_name["local_search"]["size"] == "N/A"
        assert by_name["dynamic_update"]["not_applicable"] is True

    def test_compare_rejects_unknown_algorithms(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "50", "--edges", "80"])
        capsys.readouterr()
        assert main(["compare", str(path), "--algorithms", "quantum"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_compare_backends_agree_on_sizes(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "plrg", "--vertices", "500", "--seed", "4"])
        capsys.readouterr()
        sizes = {}
        for backend in ("python", "numpy"):
            assert main([
                "compare", str(path), "--backend", backend,
                "--algorithms", "local_search,dynamic_update", "--json",
            ]) == 0
            rows = json.loads(capsys.readouterr().out)
            sizes[backend] = {row["algorithm"]: row["size"] for row in rows}
        assert sizes["python"] == sizes["numpy"]

    def test_reduce_command_reports_kernel(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "150", "--edges", "220"])
        capsys.readouterr()
        assert main(["reduce", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kernel vertices" in out
        assert "pendant-rule applications" in out


class TestRunCommand:
    """The declarative scenario runner (``repro-mis run --config``)."""

    @pytest.fixture
    def adjacency(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main([
            "generate", str(path), "--model", "gnm",
            "--vertices", "200", "--edges", "600", "--seed", "9",
        ])
        capsys.readouterr()
        return path

    def _write_config(self, tmp_path, payload):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(payload))
        return str(config)

    def test_named_pipeline_run(self, adjacency, tmp_path, capsys):
        config = self._write_config(
            tmp_path, {"pipeline": "two_k_swap", "input": str(adjacency)}
        )
        assert main(["run", "--config", config, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "two_k_swap"
        assert [s["stage"] for s in payload["stages"]] == ["greedy", "two_k_swap"]

    def test_inline_spec_with_stage_options(self, adjacency, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            {
                "pipeline": {
                    "name": "capped",
                    "stages": [
                        {"stage": "greedy"},
                        {"stage": "one_k_swap", "options": {"max_rounds": 1}},
                    ],
                },
                "input": str(adjacency),
                "backend": "numpy",
            },
        )
        assert main(["run", "--config", config, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "capped"
        assert payload["rounds"] <= 1

    def test_reduce_composition_via_run(self, adjacency, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            {
                "pipeline": {
                    "name": "reduce_then_greedy",
                    "stages": ["reduce", "greedy"],
                },
                "input": str(adjacency),
            },
        )
        assert main(["run", "--config", config, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["stage"] for s in payload["stages"]] == ["reduce", "greedy"]
        assert payload["size"] > 0

    def test_invalid_spec_reports_clear_message(self, adjacency, tmp_path, capsys):
        config = self._write_config(
            tmp_path,
            {
                "pipeline": {"name": "bad", "stages": ["warp_drive"]},
                "input": str(adjacency),
            },
        )
        assert main(["run", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "unknown stage 'warp_drive'" in err
        assert "available:" in err

    def test_unknown_named_pipeline_rejected(self, adjacency, tmp_path, capsys):
        config = self._write_config(
            tmp_path, {"pipeline": "nope", "input": str(adjacency)}
        )
        assert main(["run", "--config", config]) == 2
        assert "unknown named pipeline" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read run spec" in capsys.readouterr().err

    def test_run_with_checkpoint_resume_cycle(self, adjacency, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        base = {
            "pipeline": "two_k_swap",
            "input": str(adjacency),
            "checkpoint": str(checkpoint),
        }
        config = self._write_config(tmp_path, base)
        assert main(["run", "--config", config, "--json"]) == 0
        reference = json.loads(capsys.readouterr().out)
        assert checkpoint.exists()
        assert main(["run", "--config", config, "--resume", "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        for key in reference:
            if key in ("elapsed_seconds", "stages"):
                continue
            assert resumed[key] == reference[key], key


class TestSolveCheckpointFlags:
    def test_interrupt_resume_round_trip(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        checkpoint = tmp_path / "ck.json"
        main([
            "generate", str(path), "--model", "gnm",
            "--vertices", "300", "--edges", "900", "--seed", "3",
        ])
        capsys.readouterr()
        assert main(["solve", str(path), "--pipeline", "two_k_swap", "--json"]) == 0
        reference = json.loads(capsys.readouterr().out)
        code = main([
            "solve", str(path), "--pipeline", "two_k_swap",
            "--checkpoint", str(checkpoint), "--interrupt-after", "2",
        ])
        assert code == 3
        assert "resume" in capsys.readouterr().err
        assert main([
            "solve", str(path), "--pipeline", "two_k_swap",
            "--checkpoint", str(checkpoint), "--resume", "--json",
        ]) == 0
        resumed = json.loads(capsys.readouterr().out)
        for key in reference:
            if key == "elapsed_seconds":
                continue
            if key == "stages":
                ref_stages = [
                    {k: v for k, v in s.items() if k != "elapsed_seconds"}
                    for s in reference[key]
                ]
                res_stages = [
                    {k: v for k, v in s.items() if k != "elapsed_seconds"}
                    for s in resumed[key]
                ]
                assert ref_stages == res_stages
                continue
            assert resumed[key] == reference[key], key

    def test_resume_without_checkpoint_rejected(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "50", "--edges", "80"])
        capsys.readouterr()
        assert main(["solve", str(path), "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_corrupt_checkpoint_reports_typed_error(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        checkpoint = tmp_path / "ck.json"
        main(["generate", str(path), "--model", "gnm", "--vertices", "50", "--edges", "80"])
        capsys.readouterr()
        checkpoint.write_text("garbage")
        assert main([
            "solve", str(path), "--checkpoint", str(checkpoint), "--resume",
        ]) == 2
        assert "not a checkpoint" in capsys.readouterr().err


class TestReducePipelineFlag:
    def test_reduce_with_pipeline_solves_kernel(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "150", "--edges", "220"])
        capsys.readouterr()
        assert main(["reduce", str(path), "--pipeline", "two_k_swap"]) == 0
        out = capsys.readouterr().out
        assert "kernel vertices" in out
        assert "solved independent set" in out


class TestCompareContextIsolation:
    def test_reduce_pipeline_does_not_leak_kernel_into_later_rows(
        self, tmp_path, capsys
    ):
        """A reduce-containing row must not shrink the graph for its successors."""

        path = tmp_path / "toy.adj"
        main([
            "generate", str(path), "--model", "gnm",
            "--vertices", "200", "--edges", "300", "--seed", "2",
        ])
        capsys.readouterr()
        assert main([
            "compare", str(path),
            "--algorithms", "reduce_two_k_swap,two_k_swap,local_search", "--json",
        ]) == 0
        rows = {r["algorithm"]: r["size"] for r in json.loads(capsys.readouterr().out)}
        assert main([
            "compare", str(path), "--algorithms", "two_k_swap,local_search", "--json",
        ]) == 0
        alone = {r["algorithm"]: r["size"] for r in json.loads(capsys.readouterr().out)}
        assert rows["two_k_swap"] == alone["two_k_swap"]
        assert rows["local_search"] == alone["local_search"]
        assert rows["reduce_two_k_swap"] >= alone["two_k_swap"]


class TestRunSpecBackendValidation:
    def test_unknown_backend_in_run_spec_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "50", "--edges", "80"])
        capsys.readouterr()
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"pipeline": "greedy", "input": str(path), "backend": "bogus"}
        ))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "not a registered kernel backend" in err


class TestInterruptRequiresCheckpoint:
    def test_interrupt_after_without_checkpoint_rejected(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "50", "--edges", "80"])
        capsys.readouterr()
        assert main(["solve", str(path), "--interrupt-after", "1"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_spec_level_resume_without_checkpoint_rejected(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "50", "--edges", "80"])
        capsys.readouterr()
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"pipeline": "greedy", "input": str(path), "resume": True}
        ))
        assert main(["run", "--config", str(config)]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_interrupt_after_must_be_positive(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "50", "--edges", "80"])
        capsys.readouterr()
        assert main([
            "solve", str(path),
            "--checkpoint", str(tmp_path / "ck.json"), "--interrupt-after", "0",
        ]) == 2
        assert ">= 1" in capsys.readouterr().err


class TestRunCommandErrorPaths:
    def test_missing_input_file_is_a_clean_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"pipeline": "greedy", "input": str(tmp_path / "absent.adj")}
        ))
        assert main(["run", "--config", str(config)]) == 2
        assert "cannot open input" in capsys.readouterr().err

    def test_truncated_input_file_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.adj"
        bad.write_bytes(b"\x00\x01")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"pipeline": "greedy", "input": str(bad)}))
        assert main(["run", "--config", str(config)]) == 2
        assert "cannot open input" in capsys.readouterr().err

    def test_stream_spec_is_refused(self, tmp_path, capsys):
        # A spec with 'updates' is a stream session; a static solve of it
        # would silently drop the update stream.
        config = tmp_path / "stream.json"
        config.write_text(json.dumps({
            "pipeline": "greedy",
            "input": str(tmp_path / "g.adj"),
            "updates": str(tmp_path / "u.txt"),
            "batch_size": 2,
        }))
        assert main(["run", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "'updates'" in err and "repro-mis watch" in err


class TestReducePipelinePrefix:
    def test_reduce_prefixed_pipeline_not_doubled(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "150", "--edges", "220"])
        capsys.readouterr()
        assert main(["reduce", str(path), "--pipeline", "reduce_two_k_swap"]) == 0
        out = capsys.readouterr().out
        assert "solved independent set" in out


class TestRunConfigDir:
    """The scenario sweep: ``repro-mis run --config-dir DIR``."""

    @pytest.fixture
    def sweep_dir(self, tmp_path, capsys):
        adjacency = tmp_path / "toy.adj"
        main([
            "generate", str(adjacency), "--model", "gnm",
            "--vertices", "200", "--edges", "600", "--seed", "9",
        ])
        capsys.readouterr()
        config_dir = tmp_path / "specs"
        config_dir.mkdir()
        for name, pipeline in (
            ("one.json", "greedy"),
            ("two.json", "one_k_swap"),
            ("three.json", "two_k_swap"),
        ):
            (config_dir / name).write_text(
                json.dumps(
                    {"pipeline": pipeline, "input": str(adjacency), "max_rounds": 2}
                )
            )
        return config_dir

    def test_sweep_aggregates_per_stage_telemetry(self, sweep_dir, capsys):
        assert main(["run", "--config-dir", str(sweep_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["summary"]["algorithm"] for r in payload["runs"]] == [
            "greedy",  # one.json
            "two_k_swap",  # three.json (sorted name order)
            "one_k_swap",  # two.json
        ]
        aggregate = {row["stage"]: row for row in payload["aggregate_stages"]}
        # greedy ran in all three pipelines; the swap stages once each.
        assert aggregate["greedy"]["executions"] == 3
        assert aggregate["one_k_swap"]["executions"] == 1
        assert aggregate["two_k_swap"]["executions"] == 1
        assert aggregate["greedy"]["sequential_scans"] == sum(
            entry["io"]["sequential_scans"]
            for run in payload["runs"]
            for entry in run["stages"]
            if entry["stage"] == "greedy"
        )

    def test_sweep_table_output(self, sweep_dir, capsys):
        assert main(["run", "--config-dir", str(sweep_dir)]) == 0
        out = capsys.readouterr().out
        assert "scenario sweep: 3 runs" in out
        assert "aggregate per-stage telemetry" in out

    def test_empty_directory_is_a_clean_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["run", "--config-dir", str(empty)]) == 2
        assert "no *.json run specs" in capsys.readouterr().err

    def test_malformed_spec_names_the_file(self, sweep_dir, capsys):
        (sweep_dir / "broken.json").write_text("{nope")
        assert main(["run", "--config-dir", str(sweep_dir)]) == 2
        assert "broken.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"updates": "u.txt"}, "'updates' (a stream session); use 'repro-mis watch'"),
            ({"resume": True}, "resuming requires a 'checkpoint' path"),
        ],
        ids=["stream-spec", "resume-without-checkpoint"],
    )
    def test_unrunnable_spec_is_refused_before_any_run(
        self, sweep_dir, capsys, extra, message
    ):
        spec = json.loads((sweep_dir / "one.json").read_text())
        (sweep_dir / "zz_last.json").write_text(json.dumps({**spec, **extra}))
        assert main(["run", "--config-dir", str(sweep_dir), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert "\n" not in err
        assert "zz_last.json" in err and message in err

    def test_resume_flag_requires_single_config(self, sweep_dir, capsys):
        assert main(["run", "--config-dir", str(sweep_dir), "--resume"]) == 2
        assert "single --config" in capsys.readouterr().err

    def test_config_and_config_dir_are_exclusive(self, sweep_dir):
        with pytest.raises(SystemExit):
            main([
                "run", "--config", "x.json", "--config-dir", str(sweep_dir),
            ])


class TestCheckpointCadenceFlag:
    def test_nonpositive_cadence_rejected(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "100", "--edges", "200"])
        capsys.readouterr()
        assert main([
            "solve", str(path), "--checkpoint", str(tmp_path / "ck"),
            "--checkpoint-every-seconds", "0",
        ]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_cadence_run_still_solves(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main(["generate", str(path), "--model", "gnm", "--vertices", "100", "--edges", "200"])
        capsys.readouterr()
        assert main([
            "solve", str(path), "--pipeline", "one_k_swap",
            "--checkpoint", str(tmp_path / "ck"),
            "--checkpoint-every-seconds", "3600", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] > 0


class TestServiceCommands:
    """The solver-as-a-service verbs, driven end to end through the CLI."""

    @pytest.fixture
    def adjacency(self, tmp_path, capsys):
        path = tmp_path / "toy.adj"
        main([
            "generate", str(path), "--model", "gnm",
            "--vertices", "200", "--edges", "600", "--seed", "9",
        ])
        capsys.readouterr()
        return path

    @pytest.fixture
    def spec_path(self, adjacency, tmp_path):
        config = tmp_path / "job.json"
        config.write_text(
            json.dumps(
                {"pipeline": "two_k_swap", "input": str(adjacency), "max_rounds": 2}
            )
        )
        return str(config)

    def test_submit_serve_status_results_cycle(self, spec_path, tmp_path, capsys):
        service_dir = str(tmp_path / "svc")
        assert main(["submit", service_dir, "--config", spec_path, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1 and records[0]["state"] == "queued"
        job_id = records[0]["job_id"]

        assert main(["serve", service_dir, "--drain", "--poll-interval", "0.02"]) == 0
        capsys.readouterr()

        assert main(["status", service_dir, job_id, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert record["state"] == "done"

        assert main(["results", service_dir, job_id, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "two_k_swap"
        assert payload["size"] > 0

    def test_duplicate_submission_served_from_cache(
        self, spec_path, tmp_path, capsys
    ):
        service_dir = str(tmp_path / "svc")
        main(["submit", service_dir, "--config", spec_path])
        main(["serve", service_dir, "--drain", "--poll-interval", "0.02"])
        capsys.readouterr()
        assert main(["submit", service_dir, "--config", spec_path, "--json"]) == 0
        job_id = json.loads(capsys.readouterr().out)[0]["job_id"]
        main(["serve", service_dir, "--drain", "--poll-interval", "0.02"])
        capsys.readouterr()
        assert main(["status", service_dir, job_id, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert record["state"] == "done"
        assert record["cache_hit"] is True
        assert record["attempts"] == 0

    def test_crash_drill_via_interrupt_after(self, spec_path, tmp_path, capsys):
        service_dir = str(tmp_path / "svc")
        assert main([
            "submit", service_dir, "--config", spec_path,
            "--interrupt-after", "1", "--json",
        ]) == 0
        job_id = json.loads(capsys.readouterr().out)[0]["job_id"]
        assert main(["serve", service_dir, "--drain", "--poll-interval", "0.02"]) == 0
        capsys.readouterr()
        assert main(["status", service_dir, job_id, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)[0]
        assert record["state"] == "done"
        assert record["attempts"] > 1  # crashed and resumed at least once

    def test_submit_wait_times_out_without_a_daemon(
        self, spec_path, tmp_path, capsys
    ):
        # --wait blocks on the job record; with no daemon to run the job
        # the wait must end in a clean timeout error, not a hang.
        service_dir = str(tmp_path / "svc")
        assert main([
            "submit", service_dir, "--config", spec_path,
            "--wait", "--timeout", "0.2",
        ]) == 2
        assert "timed out" in capsys.readouterr().err

    def test_batch_submit_directory(self, adjacency, tmp_path, capsys):
        config_dir = tmp_path / "specs"
        config_dir.mkdir()
        for name, pipeline in (("a.json", "greedy"), ("b.json", "one_k_swap")):
            (config_dir / name).write_text(
                json.dumps(
                    {"pipeline": pipeline, "input": str(adjacency), "max_rounds": 2}
                )
            )
        service_dir = str(tmp_path / "svc")
        assert main([
            "submit", service_dir, "--config-dir", str(config_dir), "--json",
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert main(["serve", service_dir, "--drain", "--poll-interval", "0.02"]) == 0
        capsys.readouterr()
        assert main(["status", service_dir, "--json"]) == 0
        assert [r["state"] for r in json.loads(capsys.readouterr().out)] == [
            "done",
            "done",
        ]

    def test_cancel_queued_job(self, spec_path, tmp_path, capsys):
        service_dir = str(tmp_path / "svc")
        main(["submit", service_dir, "--config", spec_path, "--json"])
        job_id = json.loads(capsys.readouterr().out)[0]["job_id"]
        assert main(["cancel", service_dir, job_id]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert main(["cancel", service_dir, job_id]) == 2
        assert "cannot cancel" in capsys.readouterr().err

    def test_status_on_missing_service_dir(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nowhere")]) == 2
        assert "not a service directory" in capsys.readouterr().err

    def test_serve_rejects_negative_cadence(self, tmp_path, capsys):
        assert main([
            "serve", str(tmp_path / "svc"), "--drain",
            "--checkpoint-every-seconds", "-1",
        ]) == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_interrupt_after_requires_single_config(self, tmp_path, capsys):
        specs = tmp_path / "specs"
        specs.mkdir()
        assert main([
            "submit", str(tmp_path / "svc"), "--config-dir", str(specs),
            "--interrupt-after", "2",
        ]) == 2
        assert "single --config" in capsys.readouterr().err

    def test_submit_missing_input_is_a_clean_error(self, tmp_path, capsys):
        config = tmp_path / "job.json"
        config.write_text(
            json.dumps({"pipeline": "greedy", "input": str(tmp_path / "no.adj")})
        )
        assert main(["submit", str(tmp_path / "svc"), "--config", str(config)]) == 2
        assert "cannot digest" in capsys.readouterr().err


class TestConvertCommand:
    def _generate(self, tmp_path):
        path = tmp_path / "toy.adj"
        assert main([
            "generate", str(path), "--model", "gnm",
            "--vertices", "200", "--edges", "500", "--seed", "7",
        ]) == 0
        return path

    def test_convert_round_trip_is_the_identity(self, tmp_path, capsys):
        text = self._generate(tmp_path)
        binary = tmp_path / "toy.csr"
        restored = tmp_path / "restored.adj"
        assert main(["convert", str(text), str(binary), "--to-binary"]) == 0
        out = capsys.readouterr().out
        assert "200 vertices" in out
        assert "digest" in out
        assert main(["convert", str(binary), str(restored), "--to-adjacency"]) == 0
        assert text.read_bytes() == restored.read_bytes()

    def test_solve_auto_detects_the_binary_artifact(self, tmp_path, capsys):
        text = self._generate(tmp_path)
        binary = tmp_path / "toy.csr"
        main(["convert", str(text), str(binary), "--to-binary"])
        capsys.readouterr()
        assert main(["solve", str(text), "--pipeline", "two_k_swap", "--json"]) == 0
        text_payload = json.loads(capsys.readouterr().out)
        assert main(["solve", str(binary), "--pipeline", "two_k_swap", "--json"]) == 0
        binary_payload = json.loads(capsys.readouterr().out)
        # Wall-clock timings legitimately differ between the two runs; the
        # parity contract is sets, rounds, extras and modeled IOStats.
        for payload in (text_payload, binary_payload):
            payload.pop("elapsed_seconds", None)
            for stage in payload.get("stages", []):
                stage.pop("elapsed_seconds", None)
        assert text_payload == binary_payload

    def test_compare_bound_and_reduce_accept_the_artifact(self, tmp_path, capsys):
        text = self._generate(tmp_path)
        binary = tmp_path / "toy.csr"
        main(["convert", str(text), str(binary), "--to-binary"])
        capsys.readouterr()
        assert main(["bound", str(binary)]) == 0
        assert "upper bound" in capsys.readouterr().out
        assert main([
            "compare", str(binary), "--algorithms", "greedy,local_search",
        ]) == 0
        assert "local_search" in capsys.readouterr().out
        assert main(["reduce", str(binary)]) == 0
        assert "kernel vertices" in capsys.readouterr().out

    def test_convert_requires_a_direction(self, tmp_path):
        text = self._generate(tmp_path)
        with pytest.raises(SystemExit):
            main(["convert", str(text), str(tmp_path / "out.csr")])

    def test_convert_wrong_direction_is_a_clean_error(self, tmp_path, capsys):
        text = self._generate(tmp_path)
        capsys.readouterr()
        # --to-adjacency on a text file: the magic is not a CSR artifact.
        assert main([
            "convert", str(text), str(tmp_path / "out.adj"), "--to-adjacency",
        ]) == 2
        assert "not a binary CSR artifact" in capsys.readouterr().err

    def test_convert_missing_input_is_a_clean_error(self, tmp_path, capsys):
        assert main([
            "convert", str(tmp_path / "no.adj"), str(tmp_path / "o.csr"),
            "--to-binary",
        ]) == 2
        assert "cannot open" in capsys.readouterr().err
        assert not (tmp_path / "no.adj").exists()


class TestUnopenableInput:
    @pytest.mark.parametrize("command", ["solve", "compare", "bound", "reduce"])
    @pytest.mark.parametrize("input_kind", ["missing", "garbage"])
    def test_unopenable_input_is_a_clean_error(
        self, tmp_path, capsys, command, input_kind
    ):
        path = tmp_path / "input.adj"
        if input_kind == "garbage":
            path.write_bytes(b"\x00\x01not a graph file at all\xff")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot open input {str(path)!r}")
        assert len(err.strip().splitlines()) == 1
        assert path.exists() == (input_kind == "garbage")


class TestServeCacheLimitFlag:
    def test_negative_cache_limit_rejected(self, tmp_path, capsys):
        assert main([
            "serve", str(tmp_path / "svc"), "--cache-limit-bytes", "-1",
        ]) == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_cache_limit_reaches_the_service_config(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", str(tmp_path / "svc"), "--cache-limit-bytes", "4096"]
        )
        assert args.cache_limit_bytes == 4096
        default = build_parser().parse_args(["serve", str(tmp_path / "svc")])
        assert default.cache_limit_bytes is None
