#pragma once

// Named simulation variables (Uintah's VarLabel).
//
// Labels are interned: create() returns a stable pointer for a given name,
// so tasks and the data warehouse can compare labels by pointer and key
// containers by a dense integer id.

#include <string>

namespace usw::var {

class VarLabel {
 public:
  /// Interns `name` and returns its label; repeated calls with the same
  /// name return the same pointer. Thread safe.
  static const VarLabel* create(const std::string& name);

  const std::string& name() const { return name_; }
  int id() const { return id_; }

  VarLabel(const VarLabel&) = delete;
  VarLabel& operator=(const VarLabel&) = delete;

 private:
  VarLabel(std::string name, int id) : name_(std::move(name)), id_(id) {}

  std::string name_;
  int id_;
};

}  // namespace usw::var
