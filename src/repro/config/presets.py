"""Named machine configurations used by the evaluation.

``paper_config`` reproduces Table III exactly (modulo the documented
substitutions); the helpers derive Baseline / WiDir variants and scaled-down
machines for the 4-to-64-core scalability study (Figure 10).
"""

from __future__ import annotations

from dataclasses import replace

from repro.config.system import DirectoryConfig, SystemConfig


def paper_config(num_cores: int = 64, protocol: str = "widir", seed: int = 42) -> SystemConfig:
    """The paper's Table III machine at the given core count and protocol."""
    config = SystemConfig(num_cores=num_cores, protocol=protocol, seed=seed)
    config.validate()
    return config


def protocol_config(
    protocol: str,
    num_cores: int = 64,
    max_wired_sharers: int = None,
    seed: int = 42,
    mac: str = "brs",
) -> SystemConfig:
    """Table III machine for any registered protocol backend.

    The one rule for how a requested threshold and MAC land on a preset:

    * ``max_wired_sharers`` (WiDir's Table VI axis, hybrid_update's
      mode-entry trigger) applies only to backends with
      ``uses_sharer_threshold``; ``None`` keeps the preset's value;
    * ``mac`` applies only to backends with ``uses_wireless``. A wired
      protocol keeps the default MAC whatever is asked for, so it has one
      config, one label and one run key.

    Unknown protocol or MAC names raise ``ValueError`` naming the known set.
    """
    # Imported lazily: config is a leaf module both registries depend on.
    from repro.coherence.backend import get_backend
    from repro.wireless.mac import get_mac

    backend = get_backend(protocol)
    get_mac(mac)
    config = paper_config(num_cores=num_cores, protocol=protocol, seed=seed)
    if (
        backend.uses_sharer_threshold
        and max_wired_sharers is not None
        and max_wired_sharers != config.directory.max_wired_sharers
    ):
        directory = DirectoryConfig(
            num_pointers=max(config.directory.num_pointers, max_wired_sharers),
            max_wired_sharers=max_wired_sharers,
            update_count_threshold=config.directory.update_count_threshold,
        )
        config = replace(config, directory=directory)
        config.validate()
    if backend.uses_wireless and mac != config.mac:
        config = replace(config, mac=mac)
    return config


def baseline_config(num_cores: int = 64, seed: int = 42) -> SystemConfig:
    """MESI Dir_3_B machine without wireless support."""
    return paper_config(num_cores=num_cores, protocol="baseline", seed=seed)


def widir_config(
    num_cores: int = 64, max_wired_sharers: int = 3, seed: int = 42
) -> SystemConfig:
    """WiDir machine; ``max_wired_sharers`` is the Table VI sensitivity knob."""
    return protocol_config(
        "widir",
        num_cores=num_cores,
        max_wired_sharers=max_wired_sharers,
        seed=seed,
    )
