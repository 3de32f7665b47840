// Search-trace persistence: one on-disk format, the checkpoint CSV.
//
// T_a — the (configuration, run time) record from a tuning run — is the
// paper's transferable artifact: collected once per machine, reused to
// warm every future search. Every trace on disk is a SearchCheckpoint:
// the trace plus the sampler and resilience state needed to resume the
// search exactly. save_checkpoint_csv is the one writer (`collect --out`
// and `--checkpoint`, the run journal's phase files, session checkpoints,
// surrogate-store entries) and load_checkpoint_csv the one reader, which
// validates the file against a ParamSpace; callers that need only T_a
// take `.trace`. summarize_checkpoint_csv shares its parse.
//
// Format (header row carries the parameter names; `# key,...` metadata
// rows carry the algorithm/problem/machine and the resume state):
//
//   # portatune-checkpoint v3,<algorithm>,<problem>,<machine>
//   # draws,<stream draws consumed>
//   # clock,<search clock seconds>
//   # stop,<stop reason or empty>
//   # stats,<attempts>,<failures>,<transient>,<deterministic>,<timeouts>,<overhead_seconds>
//   # quarantine,<hex hash>,<hex hash>,...          (row absent when empty)
//   # pending,<hex hash>:<draw>,...                 (row absent when empty;
//                                                    session suggestions not
//                                                    yet reported)
//   <param0>,...,seconds,elapsed,draw_index,wall_unix
//   32,256,4,...,0.3412,5.75,17,1713960000.25
//   # checksum,<16 hex digits>
//
// Values are written as parameter *values* (like the surrogate features),
// not indices, so traces stay meaningful if a space is re-declared with
// the same values in a different construction order per parameter. Rows
// carry the original elapsed timestamp and the clock, stop reason and
// failure stats have rows of their own, so a reloaded trace equals the
// saved one in every field and a resumed clock is bitwise-identical.
//
// The final checksum row carries the FNV-1a hash of every byte before it,
// so the reader rejects truncated or bit-flipped files with a checksum
// diagnostic instead of silently resuming from garbage. Any other magic
// line — the older v1/v2 checkpoints and the retired trace files, v3
// included — is rejected as a bad magic line.
#pragma once

#include <iosfwd>
#include <limits>
#include <optional>
#include <string>

#include "tuner/random_search.hpp"
#include "tuner/trace.hpp"

namespace portatune::tuner {

/// Serialize an in-progress search snapshot (trace + sampler position +
/// quarantine) so the search can be resumed exactly.
void save_checkpoint_csv(std::ostream& os, const SearchCheckpoint& snapshot,
                         const ParamSpace& space);

/// Serialize to a file. The file is written to `path + ".tmp"` first and
/// renamed, so a crash mid-write never corrupts the previous checkpoint.
void save_checkpoint_csv(const std::string& path,
                         const SearchCheckpoint& snapshot,
                         const ParamSpace& space);

/// Parse a checkpoint written by save_checkpoint_csv. Every row's values
/// must be present in the space's per-parameter value lists (exact
/// match). Throws portatune::Error, naming the offending row, on I/O or
/// format errors.
SearchCheckpoint load_checkpoint_csv(std::istream& is,
                                     const ParamSpace& space);

SearchCheckpoint load_checkpoint_csv(const std::string& path,
                                     const ParamSpace& space);

/// What a status reader needs of a checkpoint file, without its
/// ParamSpace: the data rows and their minimum `seconds`.
struct CheckpointSummary {
  std::size_t rows = 0;
  double best_seconds = std::numeric_limits<double>::infinity();
};

/// Summarize a checkpoint file once its checksum footer verifies. A
/// missing, unreadable or corrupt file yields nullopt; never throws.
std::optional<CheckpointSummary> summarize_checkpoint_csv(
    const std::string& path);

}  // namespace portatune::tuner
