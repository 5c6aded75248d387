// Host-speed reference for the end-to-end times.
//
// The shared host this benchmark was tuned on changes speed by up to 2x
// over tens of seconds, independently of the program (see README.md,
// "Steadiness").  A fixed reference kernel timed between samples tracks
// that drift, and the end-to-end times are scaled by kNominalReferenceMs /
// the kernel time measured next to them: they read as on a host where the
// kernel takes 40 ms.
//
// The kernel is benchmark code only -- a 50k-entry heap of std::function
// events with shared payloads next to an ordered map of strings, the
// allocation-heavy mix the simulator runs -- so no change to the program
// changes it.  Its footprint is about 10 MB, so it runs only after the
// first sample's peak RSS has been read.
#pragma once

namespace pathbench {

inline constexpr double kNominalReferenceMs = 40.0;

/// Host ms for one pass of the fixed reference kernel.
double referenceKernelMs();

}  // namespace pathbench
