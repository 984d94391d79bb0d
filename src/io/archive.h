#pragma once

// On-disk data archive: simulation output and checkpoint/restart
// (the role of Uintah's UDA data archiver).
//
// Layout of an archive directory:
//   <dir>/index.txt                      - grid configuration + label list
//   <dir>/step_<s>/meta.txt              - simulation time and dt at step s
//   <dir>/step_<s>/<label>_p<patch>.bin  - one field per (label, patch):
//                                          a small text header line (the
//                                          variable's box) followed by raw
//                                          little-endian doubles
//
// Fields are saved with their full ghosted box, so a restart restores the
// exact state — including the domain-boundary ghost values the boundary
// tasks wrote — and a restarted run continues bit-for-bit identically to
// an uninterrupted one (verified by tests).
//
// Each simulated rank writes only its own patches' files, so the in-process
// rank threads never contend on a file.

#include <optional>
#include <string>
#include <vector>

#include "grid/intvec.h"
#include "var/ccvariable.h"

namespace usw::io {

struct ArchiveIndex {
  grid::IntVec patch_layout;
  grid::IntVec patch_size;
  std::vector<std::string> labels;  ///< saved variables, in save order
};

struct StepMeta {
  int step = 0;
  double time = 0.0;   ///< simulation time *after* the step completed
  double dt = 0.0;     ///< dt used by the step
};

class Archive {
 public:
  explicit Archive(std::string dir) : dir_(std::move(dir)) {}

  // ---- writing ----
  /// Creates the directory (if needed) and writes the index.
  void write_index(const ArchiveIndex& index) const;
  /// Creates the step directory and writes its meta file.
  void write_step_meta(const StepMeta& meta) const;
  /// Writes one field (full box, ghosts included).
  void write_field(int step, const std::string& label, int patch_id,
                   const var::CCVariable<double>& field) const;

  // ---- reading ----
  ArchiveIndex read_index() const;
  StepMeta read_step_meta(int step) const;
  /// Reads one field; throws Error if missing or corrupt.
  var::CCVariable<double> read_field(int step, const std::string& label,
                                     int patch_id) const;
  /// True if the step's meta file exists.
  bool has_step(int step) const;

  /// Latest step present in the archive; nullopt if none.
  std::optional<int> latest_step() const;

 private:
  std::string step_dir(int step) const;
  std::string field_path(int step, const std::string& label, int patch_id) const;

  std::string dir_;
};

}  // namespace usw::io
