// A fixed reference computation timed next to every repetition. The host's
// speed drifts by tens of percent over tens of seconds when other load
// shares it, and a slowdown hits the simulator and this kernel alike, so a
// repetition's host time divided by the kernel's measures the simulator's
// cost independently of that drift. The kernel is the benchmark's own code
// and never changes with the simulator.
#pragma once

namespace vdcbench {

/// The standard host runs the reference kernel in this time. A
/// repetition's host time t, measured next to kernel runs of r seconds, is
/// t * kStandardReferenceS / r standard-host seconds.
inline constexpr double kStandardReferenceS = 0.05;

/// Runs the reference kernel once (a small discrete-event loop: a binary
/// heap of timestamps, exponential draws and hash-map updates) and returns
/// the wall time of its event loop.
[[nodiscard]] double reference_kernel_s();

}  // namespace vdcbench
