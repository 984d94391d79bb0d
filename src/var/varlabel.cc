#include "var/varlabel.h"

#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace usw::var {
namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<VarLabel>> by_name;
  int next_id = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

const VarLabel* VarLabel::create(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.by_name.find(name);
  if (it != r.by_name.end()) return it->second.get();
  auto label = std::unique_ptr<VarLabel>(new VarLabel(name, r.next_id++));
  const VarLabel* ptr = label.get();
  r.by_name.emplace(name, std::move(label));
  return ptr;
}

}  // namespace usw::var
