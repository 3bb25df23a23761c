"""JSON run configuration: schema, validation, and assembly.

A run config is a single JSON document with one section per parameter
record of the models a timeline runs (diminishing rewards, difficulty,
retention, decay) plus fit, case-study, timeline, seed, and output sections.
The reward-frequency and flow kernels take no config: no command reads
them. The schema is the records themselves: each section is a dataclass,
and each of its fields carries its constraint (kind, bounds, JSON key) in
its metadata, the same table the record checks when built directly (see
``_spec``). A setting that feeds an engine field takes that field's spec
rather than a copy: the ``timeline`` section's fields those of
``TimelineConfig`` (``initial_skill`` that of ``UserState.skill``), and
``seeds.sim`` that of ``TimelineConfig.seed``, so the simulator alone states
those bounds. A field with no constraint is a nested section. Loading walks
that table once and reports all violations at once, each named by its field
path (e.g. ``models.diminishing.beta``); unknown keys are violations too,
and so is a key given twice in one object of a file. A field whose record
declares a default may be left out and takes that default; every other
field, and every section, is required.

The packaged ``default_config.json`` is the documented default profile; all
of its values are configuration, never hard-coded in the model functions.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from collections import Counter
from functools import cache
from importlib import resources
from pathlib import Path

from ._spec import INTEGER, NON_EMPTY, POSITIVE, POSITIVE_COUNT, UNIT_OPEN, ConfigError, Spec, _specs, record
from .models import DiminishingRewardParams, EngagementDecayParams, LogisticDifficultyParams, RetentionParams
from .rng import SEED
from .simulator import TimelineConfig, UserState

__all__ = [
    "ConfigError", "ModelProfile", "FitConfig", "CaseStudySettings", "TimelineSettings", "Seeds",
    "OutputPaths", "RunConfig", "load_config", "parse_config", "default_config_path",
]

CONFIG_ENV_VAR = "ENGAGEKIT_CONFIG"

_TIMELINE = dict(_specs(TimelineConfig))
_USER = dict(_specs(UserState))


@record
class ModelProfile:
    """The parameter records of the models a timeline runs: the four that
    :class:`~engagekit.simulator.TimelineConfig` takes."""

    diminishing: DiminishingRewardParams
    difficulty: LogisticDifficultyParams
    retention: RetentionParams
    decay: EngagementDecayParams


@record
class FitConfig:
    """Gradient-descent settings for :func:`engagekit.regression.fit_logistic`,
    which re-exports this class; it lives here so that the config loads
    without the numpy-backed regression module."""

    learning_rate: float = POSITIVE.field(0.5)
    max_epochs: int = POSITIVE_COUNT.field(5000)
    convergence_tol: float = POSITIVE.field(1e-6)


@record
class CaseStudySettings:
    num_samples: int = Spec(INTEGER, ge=2).field()
    test_fraction: float = UNIT_OPEN.field()


@record
class TimelineSettings:
    """The timeline's dynamics knobs. Each field takes the constraint of the
    engine field it feeds: ``initial_skill`` that of
    :attr:`~engagekit.simulator.UserState.skill`, the others that of the
    same-named :class:`~engagekit.simulator.TimelineConfig` field."""

    steps: int = _TIMELINE["steps"].field()
    initial_skill: float = _USER["skill"].field()
    skill_gain: float = _TIMELINE["skill_gain"].field()
    engagement_boost: float = _TIMELINE["engagement_boost"].field()
    intervention_threshold: float = _TIMELINE["intervention_threshold"].field()
    intervention_reward_multiplier: float = _TIMELINE["intervention_reward_multiplier"].field()


@record
class Seeds:
    """Independent 64-bit seeds, one per pipeline stage. No command reads
    ``fit``: the full-batch fit draws nothing. ``sim`` takes the constraint
    of :attr:`~engagekit.simulator.TimelineConfig.seed`, the field it feeds."""

    data: int = SEED.field()
    split: int = SEED.field()
    fit: int = SEED.field()
    sim: int = _TIMELINE["seed"].field()


@record
class OutputPaths:
    report_json: str = NON_EMPTY.field()
    confusion_csv: str = NON_EMPTY.field()


@record
class RunConfig:
    models: ModelProfile
    fit: FitConfig
    case_study: CaseStudySettings
    timeline: TimelineSettings
    seeds: Seeds
    output: OutputPaths

    def timeline_config(self, steps: int | None = None) -> TimelineConfig:
        """Assemble the simulator config, optionally overriding the step count."""
        t = self.timeline
        return TimelineConfig(
            steps=t.steps if steps is None else steps,
            diminishing=self.models.diminishing,
            difficulty=self.models.difficulty,
            retention=self.models.retention,
            decay=self.models.decay,
            skill_gain=t.skill_gain,
            engagement_boost=t.engagement_boost,
            intervention_threshold=t.intervention_threshold,
            intervention_reward_multiplier=t.intervention_reward_multiplier,
            seed=self.seeds.sim,
        )

    def initial_user_state(self) -> UserState:
        """Timeline starting point: engagement from the decay profile's e0,
        skill from the timeline section."""
        return UserState(engagement=self.models.decay.e0, skill=self.timeline.initial_skill)


def default_config_path() -> Path:
    """Filesystem path of the packaged default profile."""
    return Path(str(resources.files("engagekit").joinpath("default_config.json")))


@cache
def _layout(cls) -> dict[str, tuple]:
    """JSON key -> (field name, spec, type, required) per field of cls; a
    field with no spec is a nested section of that record type, and a field
    with a default may be left out."""
    fields = dataclasses.fields(cls)
    specs = [f.metadata.get("spec") for f in fields]
    types = typing.get_type_hints(cls) if None in specs else {}
    return {spec.key or f.name if spec else f.name:
            (f.name, spec, types.get(f.name), f.default is dataclasses.MISSING) for f, spec in zip(fields, specs)}


def _build(cls, raw: dict, path: str, violations: list[str]):
    """Build record cls from its JSON object raw, found at path, adding a
    "path: message" line to violations per violation; nested sections come
    after every field at this level. Returns None if any was violated."""
    found = len(violations)
    layout = _layout(cls)
    violations += [f"{path or 'config'}.{key}: unexpected field" for key in raw if key not in layout]
    violations += [f"{path or 'config'}.{key}: duplicate field" for key in getattr(raw, "duplicates", ())]
    values, sections = {}, []
    for key, (name, spec, record, required) in layout.items():
        where = f"{path}.{key}" if path else key
        if key not in raw:
            if required:
                violations.append(f"{where}: missing required {'section' if spec is None else 'field'}")
        elif spec is None:
            if isinstance(raw[key], dict):
                sections.append((name, record, raw[key], where))
            else:
                violations.append(f"{where}: must be an object")
        elif (problem := spec.problem(raw[key])) is not None:
            violations.append(f"{where}: {problem}")
        else:
            values[name] = raw[key]
    for name, record, section, where in sections:
        values[name] = _build(record, section, where, violations)
    return cls(**values) if len(violations) == found else None


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document and assemble the run config.

    Raises:
        ConfigError: listing every violated field path, not just the first.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["top level: must be a JSON object"])
    violations: list[str] = []
    cfg = _build(RunConfig, raw, "", violations)
    if cfg is None:
        raise ConfigError(violations)
    return cfg


class _JSONObject(dict):
    """A JSON object that keeps the last value of each key, as json does,
    and lists the keys it held more than once."""

    __slots__ = ("duplicates",)

    def __init__(self, pairs: list[tuple[str, object]]):
        super().__init__(pairs)
        self.duplicates = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]


def load_config(path: str | Path) -> RunConfig:
    """Read, parse, and validate a JSON run configuration file.

    The file must be UTF-8, as JSON text is (RFC 8259, section 8.1): other
    bytes are invalid JSON, reported like a syntax error. Names within an
    object should be unique (section 4), so a repeated key is a violation,
    ``path.key: duplicate field``, reported with all the others.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_JSONObject)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError([f"{path}: invalid JSON: {err}"]) from err
    return parse_config(raw)
