#include "src/core/database.h"

#include <utility>

#include "src/storage/storage_engine.h"

namespace gqlite {

Result<Database> Database::Open(const std::string& path,
                                EngineOptions options) {
  GQL_RETURN_IF_ERROR(CypherEngine::ApplyEnvOverrides(&options));
  GQL_ASSIGN_OR_RETURN(std::unique_ptr<DurableStorageEngine> storage,
                       DurableStorageEngine::Open(path));
  return Bind(options, std::move(storage));
}

Result<Database> Database::OpenInMemory(EngineOptions options,
                                        GraphPtr initial) {
  GQL_RETURN_IF_ERROR(CypherEngine::ApplyEnvOverrides(&options));
  return Bind(options,
              std::make_unique<InMemoryStorageEngine>(std::move(initial)));
}

Result<Database> Database::Bind(const EngineOptions& options,
                                std::unique_ptr<StorageEngine> storage) {
  GQL_ASSIGN_OR_RETURN(std::shared_ptr<PropertyGraph> recovered,
                       storage->Recover());
  return Database(std::unique_ptr<CypherEngine>(
      new CypherEngine(options, std::move(storage), std::move(recovered))));
}

Status Database::Close() {
  if (engine_ == nullptr) return Status::OK();  // moved-from handle
  return engine_->Close();
}

Database::~Database() {
  // Best-effort final flush; use Close() to observe the status.
  (void)Close();
}

}  // namespace gqlite
