#include "src/core/database.h"

#include <utility>

#include "src/storage/storage_engine.h"

namespace gqlite {

Result<Database> Database::Open(const std::string& path,
                                EngineOptions options) {
  GQL_ASSIGN_OR_RETURN(std::unique_ptr<DurableStorageEngine> storage,
                       DurableStorageEngine::Open(path));
  Database db(options);
  GQL_RETURN_IF_ERROR(db.engine_->BindStorage(std::move(storage)));
  return db;
}

Result<Database> Database::OpenInMemory(EngineOptions options,
                                        GraphPtr initial) {
  Database db(options);
  auto storage = std::make_unique<InMemoryStorageEngine>(std::move(initial));
  GQL_RETURN_IF_ERROR(db.engine_->BindStorage(std::move(storage)));
  return db;
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
