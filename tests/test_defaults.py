"""Pinned default values that downstream behavior is calibrated against."""

import inspect

from anticipation import NetworkConfig, cli, fit_baseline, mc_predict


def test_network_defaults():
    config = NetworkConfig(input_dim=4, instruments=2)
    assert config.dropout == 0.2
    assert config.lambda_cls == 1e-2
    assert config.weight_decay == 1e-5
    assert config.learning_rate == 1e-4
    assert config.window == 128
    assert config.accum_steps == 3
    assert config.epochs == 100
    assert config.hidden == 64 and config.encoder == (64, 64)
    assert config.horizon == 3.0
    assert config.phase_weight == config.lambda_cls  # lambda_phase defaults to lambda


def test_operation_defaults():
    assert inspect.signature(fit_baseline).parameters["bins"].default == 1000
    assert inspect.signature(mc_predict).parameters["samples"].default == 10


def test_config_file_defaults():
    """Every key a config file may leave out, as JSON; the resolved config and
    its hash in the run manifest are built on these."""
    assert cli.DEFAULT_CONFIG == {
        "seed": 0,
        "horizons": [3.0],
        "sim": None,
        "split": {"n_train": 12, "n_test": 8},
        "model": {"hidden": 64, "encoder": [64, 64], "phase_classes": 0, "dropout": 0.2,
                  "output_mode": "linear_clamped", "lambda_cls": 0.01, "lambda_phase": None,
                  "weight_decay": 1e-05},
        "train": {"learning_rate": 0.0001, "window": 128, "accum_steps": 3, "epochs": 100},
        "eval": {"samples": 10, "bins": 1000, "instruments": None,
                 "methods": ["meanhist", "oraclehist", "model"]},
        "analysis": {"percentiles": [10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
                     "trigger": None, "use_std": False, "memory_frames": 0},
    }
