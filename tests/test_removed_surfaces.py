"""Surfaces deleted because nothing called them stay deleted.

The lint baseline (its module and the ``lint --baseline`` /
``--update-baseline`` / ``verify-network --baseline`` flags), the CSV and
Prometheus snapshot exporters (and ``obs demo --csv`` / ``--prom``) and the
one-module ``repro.controlplane`` package are gone: a pragma is the only
lint exemption, JSON the only snapshot format, and the ownership map lives
in ``repro.core.ownership``.
"""

import importlib

import pytest

import repro.obs
from repro.analysis.__main__ import main as analysis_main
from repro.obs.__main__ import main as obs_main


def test_deleted_modules_exporters_and_flags_stay_gone(tmp_path):
    for name in ("repro.analysis.baseline", "repro.controlplane"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    for name in ("to_csv", "to_prometheus", "parse_prometheus", "buckets_from_prometheus"):
        assert not hasattr(repro.obs, name), name
    # Each is refused as a usage error before anything runs.
    for main, argv in (
        (analysis_main, ["lint", str(tmp_path), "--baseline", "x"]),
        (analysis_main, ["lint", str(tmp_path), "--update-baseline"]),
        (analysis_main, ["verify-network", "--baseline", "x"]),
        (obs_main, ["demo", "--csv", "x"]),
        (obs_main, ["demo", "--prom", "x"]),
    ):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2, argv
