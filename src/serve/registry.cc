#include "serve/registry.h"

#include <iterator>
#include <utility>

namespace treeserver {

ModelRegistry::Entry* ModelRegistry::GetOrCreateEntry(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Entry>& slot = entries_[name];
  if (slot == nullptr) slot = std::make_unique<Entry>();
  return slot.get();
}

ModelRegistry::Entry* ModelRegistry::FindEntry(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

Result<uint32_t> ModelRegistry::PublishCompiled(const std::string& name,
                                                ModelKind kind,
                                                ForestModel model) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must not be empty");
  }
  if (model.num_trees() == 0) {
    return Status::InvalidArgument("cannot publish an empty model: " + name);
  }
  auto served = std::make_shared<ServedModel>();
  served->name = name;
  served->kind = kind;
  served->compiled = CompiledForest::Compile(model);
  served->source = std::make_shared<const ForestModel>(std::move(model));

  Entry* entry = GetOrCreateEntry(name);
  std::lock_guard<std::mutex> lock(entry->mu);
  served->version = entry->next_version++;
  entry->versions[served->version] = served;
  // The swap is a single pointer assignment under the entry lock:
  // requests that resolved the previous version keep serving it to
  // completion via their shared_ptr.
  entry->current = std::move(served);
  return entry->next_version - 1;
}

Result<uint32_t> ModelRegistry::Publish(const std::string& name,
                                        ForestModel model) {
  return PublishCompiled(name, ModelKind::kForest, std::move(model));
}

Result<uint32_t> ModelRegistry::Publish(const std::string& name,
                                        TreeModel model) {
  ForestModel forest(model.kind(), model.num_classes());
  if (!model.empty()) forest.AddTree(std::move(model));
  return PublishCompiled(name, ModelKind::kTree, std::move(forest));
}

Result<uint32_t> ModelRegistry::PublishFromFile(const std::string& name,
                                                const std::string& path) {
  TS_ASSIGN_OR_RETURN(ModelKind kind, ReadModelFileKind(path));
  switch (kind) {
    case ModelKind::kTree: {
      TreeModel tree;
      TS_RETURN_IF_ERROR(LoadFromFile(path, &tree));
      return Publish(name, std::move(tree));
    }
    case ModelKind::kForest: {
      ForestModel forest;
      TS_RETURN_IF_ERROR(LoadFromFile(path, &forest));
      return Publish(name, std::move(forest));
    }
    case ModelKind::kDeepForest:
      return Status::InvalidArgument(
          path + ": deep-forest models are not servable by the row "
                 "prediction server; load it with LoadFromFile and use "
                 "CompiledCascade directly");
  }
  return Status::Internal("unreachable model kind");
}

std::shared_ptr<const ServedModel> ModelRegistry::Current(
    const std::string& name) const {
  Entry* entry = FindEntry(name);
  if (entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->current;
}

std::shared_ptr<const ServedModel> ModelRegistry::Version(
    const std::string& name, uint32_t version) const {
  Entry* entry = FindEntry(name);
  if (entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(entry->mu);
  auto it = entry->versions.find(version);
  return it == entry->versions.end() ? nullptr : it->second;
}

Status ModelRegistry::SaveCurrent(const std::string& name,
                                  const std::string& path) const {
  std::shared_ptr<const ServedModel> served = Current(name);
  if (served == nullptr) {
    return Status::NotFound("no published model named " + name);
  }
  if (served->kind == ModelKind::kTree) {
    // Round-trip as a tree file so PublishFromFile restores the kind.
    return SaveToFile(served->source->tree(0), path);
  }
  return SaveToFile(*served->source, path);
}

size_t ModelRegistry::RetireOldVersions(const std::string& name,
                                        size_t keep_latest) {
  Entry* entry = FindEntry(name);
  if (entry == nullptr) return 0;
  if (keep_latest == 0) keep_latest = 1;
  std::lock_guard<std::mutex> lock(entry->mu);
  size_t retired = 0;
  while (entry->versions.size() > keep_latest) {
    entry->versions.erase(entry->versions.begin());
    ++retired;
  }
  return retired;
}

Result<uint32_t> ModelRegistry::Rollback(const std::string& name) {
  Entry* entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("no published model named " + name);
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->current == nullptr) {
    return Status::NotFound("no published model named " + name);
  }
  auto it = entry->versions.find(entry->current->version);
  if (it == entry->versions.begin() || it == entry->versions.end()) {
    return Status::FailedPrecondition(
        name + ": no older version to roll back to");
  }
  auto prev = std::prev(it);
  entry->current = prev->second;
  // Erase the rolled-back version so a later Rollback cannot bounce
  // forward to it; requests in flight keep it alive via shared_ptr.
  entry->versions.erase(it);
  return entry->current->version;
}

std::vector<ModelRegistry::ModelStatusInfo> ModelRegistry::StatusSnapshot()
    const {
  std::vector<std::pair<std::string, Entry*>> slots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      slots.emplace_back(name, entry.get());
    }
  }
  std::vector<ModelStatusInfo> out;
  out.reserve(slots.size());
  for (const auto& [name, entry] : slots) {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (entry->current == nullptr) continue;
    ModelStatusInfo info;
    info.name = name;
    info.version = entry->current->version;
    info.num_versions = entry->versions.size();
    info.kind = entry->current->kind;
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<std::string> ModelRegistry::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

size_t ModelRegistry::NumVersions(const std::string& name) const {
  Entry* entry = FindEntry(name);
  if (entry == nullptr) return 0;
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->versions.size();
}

}  // namespace treeserver
