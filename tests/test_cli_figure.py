"""CLI figure commands (slow path, kept out of the main CLI test module)."""

from repro.cli import main


def test_figure_quick(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default run cache lands in cwd
    assert main(["figure", "4", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "64KiB" in out and "1MiB" in out
    assert "BW ovh" in out
    assert (tmp_path / ".repro-cache").is_dir()


def test_figure_quick_no_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["figure", "4", "--quick", "--no-cache", "--jobs", "2"]) == 0
    assert "Figure 4" in capsys.readouterr().out
    assert not (tmp_path / ".repro-cache").exists()


def test_figures_sweep_cold_then_warm_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["figures", "--quick", "--jobs", "2"]) == 0
    cold, cold_sweep = capsys.readouterr().out.split("\nsweep: ")
    assert "Figure 2" in cold and "Figure 3" in cold and "Figure 4" in cold
    assert "elapsed time overhead" in cold
    # 3 figures x 2 quick block sizes, all simulated on the cold run.
    assert cold_sweep.startswith("6 points, jobs=2, ")
    assert cold_sweep.endswith("cache 0 hit / 6 miss\n")
    # The sweep writes nothing into the cwd but its run cache.
    assert [p.name for p in tmp_path.iterdir()] == [".repro-cache"]

    # Warm rerun: every point served from the cache, and byte-identical.
    assert main(["figures", "--quick", "--jobs", "2"]) == 0
    warm, warm_sweep = capsys.readouterr().out.split("\nsweep: ")
    assert warm_sweep.endswith("cache 6 hit / 0 miss\n")
    assert warm == cold
