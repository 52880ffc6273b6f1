"""Real-time pose tracking with periodic global corrections.

The output pose is always anchor composed with the product of odometry
increments received since that anchor. A relocalization fix lands at the
newest increment: it replaces the anchor and restarts the product, so
already-emitted poses are never rewritten and odometry keeps streaming at
full rate between fixes. relocalize_frame is the one attempt that turns a
frame into such a fix; run_pipeline and the relocalization study both call it.
run_pipeline applies every fix: nothing gates a fix by how far it moves the
estimate, and nothing turns relocalization off. Tracking against an empty map
gives the odometry-only trajectory.

run_pipeline's first attempt, and the attempt after any failure, is
prior-free star association. An attempt that directly follows a fix is
guided: relocalize first pairs each cluster posed at the estimate with the
nearest same-label global centroid within relocalization.TRACK_GATE, and
falls back to star association within the same call when that fails or its
inliers do not span the plane. The relocalization study is never guided: it
poses frames at the true pose.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from .association import AssociationParams
from .bounds import bounded, check_bounds
from .cluster_map import ClusterMap, Frame
from .extraction import ExtractionParams, extract_clusters
from .geometry import PoseSE3
from .registration import build_local_map
from .relocalization import (
    FAILURE_NO_CLUSTERS,
    RelocalizationFailure,
    RelocParams,
    RelocResult,
    relocalize,
)

log = logging.getLogger(__name__)

# Rotation blocks are renormalized after this many compositions.
RENORM_PERIOD = 100


@dataclass(frozen=True)
class OdometryIncrement:
    timestamp: float
    relative_pose: PoseSE3


@dataclass(frozen=True)
class AnchoredPose:
    """Tracking state: globally anchored pose plus accumulated odometry."""

    anchor: PoseSE3
    accumulated: PoseSE3
    last_timestamp: float | None = None
    compose_count: int = 0

    @classmethod
    def start(cls, anchor: PoseSE3) -> "AnchoredPose":
        return cls(anchor=anchor, accumulated=PoseSE3.identity())

    @property
    def output(self) -> PoseSE3:
        return self.anchor @ self.accumulated


def apply_increment(state: AnchoredPose, increment: OdometryIncrement) -> AnchoredPose:
    """Advance the state by one odometry step; timestamps must increase."""
    if state.last_timestamp is not None and increment.timestamp <= state.last_timestamp:
        raise ValueError(
            f"out-of-order increment: {increment.timestamp} after {state.last_timestamp}"
        )
    accumulated = state.accumulated @ increment.relative_pose
    count = state.compose_count + 1
    if count % RENORM_PERIOD == 0:
        accumulated = accumulated.renormalized()
    return AnchoredPose(
        anchor=state.anchor,
        accumulated=accumulated,
        last_timestamp=increment.timestamp,
        compose_count=count,
    )


def apply_global_fix(state: AnchoredPose, fix: RelocResult, fix_timestamp: float) -> AnchoredPose:
    """Re-anchor at a corrected absolute pose valid at fix_timestamp.

    fix.pose must be the corrected vehicle pose in the global frame at
    fix_timestamp, which must be the latest increment's timestamp; any other
    raises ValueError.
    """
    last = state.last_timestamp
    if last is not None and fix_timestamp != last:
        side = "ahead of" if fix_timestamp > last else "behind"
        raise ValueError(f"fix_timestamp {fix_timestamp} is {side} the latest increment {last}")
    return AnchoredPose(anchor=fix.pose, accumulated=PoseSE3.identity(), last_timestamp=last)


@dataclass(frozen=True)
class PipelineConfig:
    reloc_period: float = bounded(0.5, 0, above=True)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class PipelineResult:
    trajectory: tuple[tuple[float, PoseSE3], ...]
    fixes_applied: int = 0
    failures: tuple[tuple[float, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "trajectory", tuple(self.trajectory))
        object.__setattr__(self, "failures", tuple(self.failures))

    @property
    def attempts(self) -> int:
        """Every attempt ends as either a fix or a failure."""
        return self.fixes_applied + len(self.failures)


def run_pipeline(
    frames,
    increments,
    global_map: ClusterMap,
    *,
    initial_pose: PoseSE3 | None = None,
    extraction: ExtractionParams | None = None,
    association: AssociationParams | None = None,
    relocalization: RelocParams | None = None,
    config: PipelineConfig | None = None,
) -> PipelineResult:
    """Track a frame sequence against a global map.

    frames and increments are read once, in step: increments[i-1] is taken
    when frames[i] arrives, and one that is missing or whose timestamp is
    not frames[i].timestamp raises ValueError there; a surplus one raises
    after the last frame. Every reloc_period seconds relocalize_frame poses
    the current frame's clusters at the running estimate and relocalizes
    them against the global map. Every fix is applied; a failure is logged
    and recorded with its reason. Against an empty map every attempt fails,
    so the trajectory is the odometry alone.
    """
    increments = iter(increments)
    config = config or PipelineConfig()

    state = AnchoredPose.start(initial_pose or PoseSE3.identity())
    trajectory: list[tuple[float, PoseSE3]] = []
    failures: list[tuple[float, str]] = []
    fixes = 0
    guided = False  # prior-free until a fix, and again after any failure
    next_attempt = float("-inf")  # the first frame is attempted

    for i, frame in enumerate(frames):
        if i > 0:
            increment = next(increments, None)
            if increment is None:
                raise ValueError("expected one increment between consecutive frames")
            if increment.timestamp != frame.timestamp:
                raise ValueError(
                    f"increments[{i - 1}].timestamp {increment.timestamp!r} differs "
                    f"from frames[{i}].timestamp {frame.timestamp!r}"
                )
            state = apply_increment(state, increment)
        if frame.timestamp >= next_attempt:
            next_attempt = frame.timestamp + config.reloc_period
            try:
                fix = relocalize_frame(
                    frame, state.output, global_map, extraction, association, relocalization,
                    guided=guided,
                )
            except RelocalizationFailure as exc:
                log.info("relocalization failed at t=%.3f: %s", frame.timestamp, exc.reason)
                failures.append((frame.timestamp, exc.reason))
                guided = False
            else:
                state = apply_global_fix(state, fix, frame.timestamp)
                fixes += 1
                guided = True
        trajectory.append((frame.timestamp, state.output))
    if next(increments, None) is not None:
        raise ValueError("expected one increment between consecutive frames")
    return PipelineResult(
        trajectory=tuple(trajectory),
        fixes_applied=fixes,
        failures=tuple(failures),
    )


def relocalize_frame(
    frame: Frame,
    estimate: PoseSE3,
    global_map: ClusterMap,
    extraction: ExtractionParams | None = None,
    association: AssociationParams | None = None,
    relocalization: RelocParams | None = None,
    *,
    guided: bool = False,
) -> RelocResult:
    """One relocalization attempt: the frame's clusters, posed at estimate,
    matched against the global map by one relocalize call.

    The result's pose is the corrected vehicle pose in the global frame,
    ready for apply_global_fix. A frame with no landmark cluster raises
    RelocalizationFailure("no-clusters"); relocalize raises the others.
    guided is passed on to relocalize: left False, the attempt is
    prior-free.
    """
    clusters = extract_clusters(frame, extraction)
    if not clusters:
        raise RelocalizationFailure(FAILURE_NO_CLUSTERS)
    local_map = build_local_map(clusters, estimate)
    result = relocalize(local_map, global_map, association, relocalization, guided=guided)
    return replace(result, pose=result.pose @ estimate)
