#include "engine/messages.h"

#include "common/trace_merge.h"

namespace treeserver {

void TaskContext::Serialize(BinaryWriter* w) const {
  w->Write(impurity);
  w->Write(max_depth);
  w->Write(min_leaf);
  w->Write(extra_trees);
  w->Write(rng_seed);
  w->Write(split_method);
  w->Write(max_bins);
}

Status TaskContext::Deserialize(BinaryReader* r, TaskContext* out) {
  TS_RETURN_IF_ERROR(r->Read(&out->impurity));
  TS_RETURN_IF_ERROR(r->Read(&out->max_depth));
  TS_RETURN_IF_ERROR(r->Read(&out->min_leaf));
  TS_RETURN_IF_ERROR(r->Read(&out->extra_trees));
  TS_RETURN_IF_ERROR(r->Read(&out->rng_seed));
  TS_RETURN_IF_ERROR(r->Read(&out->split_method));
  TS_RETURN_IF_ERROR(r->Read(&out->max_bins));
  return Status::OK();
}

namespace {

// Shared prefix of both plan kinds.
template <typename Plan>
void WritePlanHeader(const Plan& p, BinaryWriter* w) {
  w->Write(p.task_id);
  w->Write(p.tree_id);
  w->Write(p.node_id);
  w->Write(p.depth);
  w->Write(p.n_rows);
  w->Write(p.parent_worker);
  w->Write(p.parent_task);
  w->Write(p.side);
}

template <typename Plan>
Status ReadPlanHeader(BinaryReader* r, Plan* p) {
  TS_RETURN_IF_ERROR(r->Read(&p->task_id));
  TS_RETURN_IF_ERROR(r->Read(&p->tree_id));
  TS_RETURN_IF_ERROR(r->Read(&p->node_id));
  TS_RETURN_IF_ERROR(r->Read(&p->depth));
  TS_RETURN_IF_ERROR(r->Read(&p->n_rows));
  TS_RETURN_IF_ERROR(r->Read(&p->parent_worker));
  TS_RETURN_IF_ERROR(r->Read(&p->parent_task));
  TS_RETURN_IF_ERROR(r->Read(&p->side));
  return Status::OK();
}

void WriteOptionalStats(const std::optional<TargetStats>& stats,
                        BinaryWriter* w) {
  w->Write(static_cast<uint8_t>(stats.has_value() ? 1 : 0));
  if (stats.has_value()) stats->Serialize(w);
}

Status ReadOptionalStats(BinaryReader* r, std::optional<TargetStats>* out) {
  uint8_t present;
  TS_RETURN_IF_ERROR(r->Read(&present));
  if (present > 1) return Status::Corruption("bad node-stats flag");
  out->reset();
  if (present == 0) return Status::OK();
  return TargetStats::Deserialize(r, &out->emplace());
}

}  // namespace

std::string ColumnTaskPlan::Encode() const {
  BinaryWriter w;
  WritePlanHeader(*this, &w);
  w.WriteVector(columns);
  ctx.Serialize(&w);
  return w.Release();
}

Status ColumnTaskPlan::Decode(const std::string& payload,
                              ColumnTaskPlan* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(ReadPlanHeader(&r, out));
  TS_RETURN_IF_ERROR(r.ReadVector(&out->columns));
  TS_RETURN_IF_ERROR(TaskContext::Deserialize(&r, &out->ctx));
  return Status::OK();
}

std::string SubtreeTaskPlan::Encode() const {
  BinaryWriter w;
  WritePlanHeader(*this, &w);
  w.WriteVector(columns);
  w.WriteVector(column_servers);
  ctx.Serialize(&w);
  WriteOptionalStats(node_stats, &w);
  return w.Release();
}

Status SubtreeTaskPlan::Decode(const std::string& payload,
                               SubtreeTaskPlan* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(ReadPlanHeader(&r, out));
  TS_RETURN_IF_ERROR(r.ReadVector(&out->columns));
  TS_RETURN_IF_ERROR(r.ReadVector(&out->column_servers));
  TS_RETURN_IF_ERROR(TaskContext::Deserialize(&r, &out->ctx));
  return ReadOptionalStats(&r, &out->node_stats);
}

std::string ColumnTaskResponse::Encode() const {
  BinaryWriter w;
  w.Write(task_id);
  w.Write(worker);
  WriteOptionalStats(node_stats, &w);
  outcome.Serialize(&w);
  return w.Release();
}

Status ColumnTaskResponse::Decode(const std::string& payload,
                                  ColumnTaskResponse* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(r.Read(&out->task_id));
  TS_RETURN_IF_ERROR(r.Read(&out->worker));
  TS_RETURN_IF_ERROR(ReadOptionalStats(&r, &out->node_stats));
  TS_RETURN_IF_ERROR(SplitOutcome::Deserialize(&r, &out->outcome));
  return Status::OK();
}

std::string BestSplitNotify::Encode() const {
  BinaryWriter w;
  w.Write(task_id);
  w.Write(is_delegate);
  condition.Serialize(&w);
  return w.Release();
}

Status BestSplitNotify::Decode(const std::string& payload,
                               BestSplitNotify* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(r.Read(&out->task_id));
  TS_RETURN_IF_ERROR(r.Read(&out->is_delegate));
  TS_RETURN_IF_ERROR(SplitCondition::Deserialize(&r, &out->condition));
  return Status::OK();
}

std::string SubtreeResult::Encode() const {
  BinaryWriter w;
  w.Write(task_id);
  w.Write(worker);
  w.WriteString(tree_bytes);
  return w.Release();
}

Status SubtreeResult::Decode(const std::string& payload, SubtreeResult* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(r.Read(&out->task_id));
  TS_RETURN_IF_ERROR(r.Read(&out->worker));
  TS_RETURN_IF_ERROR(r.ReadString(&out->tree_bytes));
  return Status::OK();
}

std::string IxRequest::Encode() const {
  BinaryWriter w;
  w.Write(parent_task);
  w.Write(side);
  w.Write(requester_task);
  w.Write(requester_worker);
  return w.Release();
}

Status IxRequest::Decode(const std::string& payload, IxRequest* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(r.Read(&out->parent_task));
  TS_RETURN_IF_ERROR(r.Read(&out->side));
  TS_RETURN_IF_ERROR(r.Read(&out->requester_task));
  TS_RETURN_IF_ERROR(r.Read(&out->requester_worker));
  return Status::OK();
}

void WriteRowIds(BinaryWriter* w, const std::vector<uint32_t>& rows,
                 bool compress) {
  w->Write(static_cast<uint8_t>(compress ? 1 : 0));
  if (!compress) {
    w->WriteVector(rows);
    return;
  }
  WriteVarint64(w, rows.size());
  uint32_t prev = 0;
  for (uint32_t row : rows) {
    // Row ids are ascending by construction (iota roots, order-
    // preserving delegate splits), so deltas are small non-negatives.
    WriteVarint64(w, row - prev);
    prev = row;
  }
}

Status ReadRowIds(BinaryReader* r, std::vector<uint32_t>* rows) {
  uint8_t encoding;
  TS_RETURN_IF_ERROR(r->Read(&encoding));
  if (encoding == 0) return r->ReadVector(rows);
  uint64_t count;
  TS_RETURN_IF_ERROR(ReadVarint64(r, &count));
  // Each delta varint is at least one byte; a hostile count larger
  // than the remaining payload must not reach reserve().
  if (count > r->remaining()) {
    return Status::Corruption("row-id count exceeds payload");
  }
  rows->clear();
  rows->reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta;
    TS_RETURN_IF_ERROR(ReadVarint64(r, &delta));
    prev += delta;
    rows->push_back(static_cast<uint32_t>(prev));
  }
  return Status::OK();
}

std::string IxResponse::Encode() const {
  BinaryWriter w;
  w.Write(requester_task);
  WriteRowIds(&w, rows, compress);
  return w.Release();
}

Status IxResponse::Decode(const std::string& payload, IxResponse* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(r.Read(&out->requester_task));
  TS_RETURN_IF_ERROR(ReadRowIds(&r, &out->rows));
  return Status::OK();
}

std::string ColumnDataRequest::Encode() const {
  BinaryWriter w;
  w.Write(task_id);
  w.Write(tree_id);
  w.WriteVector(columns);
  w.Write(key_worker);
  w.Write(parent_worker);
  w.Write(parent_task);
  w.Write(side);
  w.Write(n_rows);
  w.Write(split_method);
  w.Write(max_bins);
  return w.Release();
}

Status ColumnDataRequest::Decode(const std::string& payload,
                                 ColumnDataRequest* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(r.Read(&out->task_id));
  TS_RETURN_IF_ERROR(r.Read(&out->tree_id));
  TS_RETURN_IF_ERROR(r.ReadVector(&out->columns));
  TS_RETURN_IF_ERROR(r.Read(&out->key_worker));
  TS_RETURN_IF_ERROR(r.Read(&out->parent_worker));
  TS_RETURN_IF_ERROR(r.Read(&out->parent_task));
  TS_RETURN_IF_ERROR(r.Read(&out->side));
  TS_RETURN_IF_ERROR(r.Read(&out->n_rows));
  TS_RETURN_IF_ERROR(r.Read(&out->split_method));
  TS_RETURN_IF_ERROR(r.Read(&out->max_bins));
  return Status::OK();
}

namespace {

// Wire tags for SerializeColumn.
constexpr uint8_t kWireNumeric = 0;
constexpr uint8_t kWireCategoricalRaw = 1;
constexpr uint8_t kWireCategoricalPacked = 2;
constexpr uint8_t kWireBinned = 3;
constexpr uint8_t kWireCategoryCodes = 4;

int BitsFor(uint32_t distinct) {
  int bits = 1;
  while ((1u << bits) < distinct) ++bits;
  return bits;
}

}  // namespace

void SerializeColumn(const Column& column, BinaryWriter* w, bool compress) {
  if (column.type() == DataType::kNumeric) {
    w->Write(kWireNumeric);
    w->WriteString(column.name());
    w->WriteVector(column.numeric_values());
    return;
  }
  if (!compress) {
    w->Write(kWireCategoricalRaw);
    w->WriteString(column.name());
    w->Write(column.cardinality());
    w->WriteVector(column.categorical_codes());
    return;
  }
  // Bit-packed: codes in [0, card] where `card` itself encodes a
  // missing value.
  const int32_t card = column.cardinality();
  const int bits = BitsFor(static_cast<uint32_t>(card) + 1);
  const auto& codes = column.categorical_codes();
  w->Write(kWireCategoricalPacked);
  w->WriteString(column.name());
  w->Write(card);
  w->Write(static_cast<uint8_t>(bits));
  WriteVarint64(w, codes.size());
  uint64_t buffer = 0;
  int filled = 0;
  for (int32_t code : codes) {
    uint64_t v = code == kMissingCategory ? static_cast<uint64_t>(card)
                                          : static_cast<uint64_t>(code);
    buffer |= v << filled;
    filled += bits;
    while (filled >= 8) {
      w->Write(static_cast<uint8_t>(buffer & 0xFF));
      buffer >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) w->Write(static_cast<uint8_t>(buffer & 0xFF));
}

namespace {

// The body of a value column whose wire tag has been read.
Status ReadColumnBody(uint8_t tag, BinaryReader* r, ColumnPtr* out) {
  std::string name;
  TS_RETURN_IF_ERROR(r->ReadString(&name));
  if (tag == kWireNumeric) {
    std::vector<double> values;
    TS_RETURN_IF_ERROR(r->ReadVector(&values));
    *out = Column::Numeric(std::move(name), std::move(values));
    return Status::OK();
  }
  if (tag == kWireCategoricalRaw) {
    int32_t cardinality;
    TS_RETURN_IF_ERROR(r->Read(&cardinality));
    std::vector<int32_t> codes;
    TS_RETURN_IF_ERROR(r->ReadVector(&codes));
    *out = Column::Categorical(std::move(name), std::move(codes), cardinality);
    return Status::OK();
  }
  if (tag != kWireCategoricalPacked) {
    return Status::Corruption("unknown column wire tag");
  }
  int32_t card;
  TS_RETURN_IF_ERROR(r->Read(&card));
  uint8_t bits;
  TS_RETURN_IF_ERROR(r->Read(&bits));
  uint64_t count;
  TS_RETURN_IF_ERROR(ReadVarint64(r, &count));
  if (card < 0 || bits == 0 || bits > 32) {
    return Status::Corruption("packed column: bad cardinality/bit width");
  }
  // `count` codes occupy ceil(count*bits/8) bytes; reject counts the
  // remaining payload cannot possibly hold before reserving.
  if (count / 8 > r->remaining() / bits ||
      (count * bits + 7) / 8 > r->remaining()) {
    return Status::Corruption("packed column: count exceeds payload");
  }
  std::vector<int32_t> codes;
  codes.reserve(count);
  uint64_t buffer = 0;
  int filled = 0;
  const uint64_t mask = (1ull << bits) - 1;
  for (uint64_t i = 0; i < count; ++i) {
    while (filled < bits) {
      uint8_t byte;
      TS_RETURN_IF_ERROR(r->Read(&byte));
      buffer |= static_cast<uint64_t>(byte) << filled;
      filled += 8;
    }
    uint64_t v = buffer & mask;
    buffer >>= bits;
    filled -= bits;
    codes.push_back(v == static_cast<uint64_t>(card)
                        ? kMissingCategory
                        : static_cast<int32_t>(v));
  }
  *out = Column::Categorical(std::move(name), std::move(codes), card);
  return Status::OK();
}

// Reads a code vector of width `Code` and hands it to `make` (one of
// BinnedColumn's validating factories).
template <typename Code, typename Make>
Status ReadCodes(BinaryReader* r, Make make,
                 std::shared_ptr<const BinnedColumn>* out) {
  std::vector<Code> codes;
  TS_RETURN_IF_ERROR(r->ReadVector(&codes));
  auto column = make(std::move(codes));
  if (!column.ok()) return column.status();
  *out = std::move(column).value();
  return Status::OK();
}

// Either form of a gathered column: values as SerializeColumn writes
// them, or codes under their own tag. Bin codes carry the boundaries,
// then uint8 or uint16 codes as the bin count implies; category codes
// carry the cardinality and the code width in bytes, then the codes.
void SerializeGathered(const GatheredColumn& column, BinaryWriter* w,
                       bool compress) {
  if (column.values != nullptr) {
    SerializeColumn(*column.values, w, compress);
    return;
  }
  const BinnedColumn& codes = *column.codes;
  if (codes.categorical()) {
    w->Write(kWireCategoryCodes);
    w->Write(static_cast<int32_t>(codes.num_bins()));
    w->Write(static_cast<uint8_t>(codes.wide() ? 2 : 1));
  } else {
    w->Write(kWireBinned);
    w->WriteVector(codes.boundaries());
  }
  if (codes.wide()) {
    w->WriteArray(codes.codes16_data(), codes.num_rows());
  } else {
    w->WriteArray(codes.codes8_data(), codes.num_rows());
  }
}

Status DeserializeGathered(BinaryReader* r, GatheredColumn* out) {
  uint8_t tag;
  TS_RETURN_IF_ERROR(r->Read(&tag));
  if (tag == kWireCategoryCodes) {
    int32_t cardinality;
    uint8_t width;
    TS_RETURN_IF_ERROR(r->Read(&cardinality));
    TS_RETURN_IF_ERROR(r->Read(&width));
    // FromCategoryCodes checks the width against the cardinality.
    auto make = [cardinality](auto codes) {
      return BinnedColumn::FromCategoryCodes(cardinality, std::move(codes));
    };
    if (width == 1) return ReadCodes<uint8_t>(r, make, &out->codes);
    if (width == 2) return ReadCodes<uint16_t>(r, make, &out->codes);
    return Status::Corruption("category codes: bad code width");
  }
  if (tag != kWireBinned) return ReadColumnBody(tag, r, &out->values);
  std::vector<double> boundaries;
  TS_RETURN_IF_ERROR(r->ReadVector(&boundaries));
  // The bin count fixes the code width; FromCodes checks the rest.
  auto make = [&boundaries](auto codes) {
    return BinnedColumn::FromCodes(std::move(boundaries), std::move(codes));
  };
  if (BinnedColumn::WideFor(boundaries.size())) {
    return ReadCodes<uint16_t>(r, make, &out->codes);
  }
  return ReadCodes<uint8_t>(r, make, &out->codes);
}

}  // namespace

Status DeserializeColumn(BinaryReader* r, ColumnPtr* out) {
  uint8_t tag;
  TS_RETURN_IF_ERROR(r->Read(&tag));
  return ReadColumnBody(tag, r, out);
}

std::string ColumnDataResponse::Encode() const {
  BinaryWriter w;
  w.Write(task_id);
  w.WriteVector(columns);
  w.Write(static_cast<uint64_t>(data.size()));
  for (const GatheredColumn& c : data) SerializeGathered(c, &w, compress);
  return w.Release();
}

Status ColumnDataResponse::Decode(const std::string& payload,
                                  ColumnDataResponse* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(r.Read(&out->task_id));
  TS_RETURN_IF_ERROR(r.ReadVector(&out->columns));
  uint64_t count;
  TS_RETURN_IF_ERROR(r.Read(&count));
  // Every serialized column is at least a tag byte plus a name length;
  // bound the resize by what the payload could possibly carry.
  if (count > r.remaining()) {
    return Status::Corruption("column count exceeds payload");
  }
  if (count != out->columns.size()) {
    return Status::Corruption("column ids and payloads disagree");
  }
  out->data.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    TS_RETURN_IF_ERROR(DeserializeGathered(&r, &out->data[i]));
    if (out->data[i].num_rows() != out->data[0].num_rows()) {
      return Status::Corruption("column row counts disagree");
    }
  }
  return Status::OK();
}

std::string TraceSnapshotMsg::Encode() const {
  BinaryWriter w;
  w.Write(worker);
  w.Write(dropped);
  SerializeTraceEvents(events, &w);
  return w.Release();
}

Status TraceSnapshotMsg::Decode(const std::string& payload,
                                TraceSnapshotMsg* out) {
  BinaryReader r(payload);
  TS_RETURN_IF_ERROR(r.Read(&out->worker));
  TS_RETURN_IF_ERROR(r.Read(&out->dropped));
  return DeserializeTraceEvents(&r, &out->events);
}

std::string TaskIdOnly::Encode() const {
  BinaryWriter w;
  w.Write(task_id);
  return w.Release();
}

Status TaskIdOnly::Decode(const std::string& payload, TaskIdOnly* out) {
  BinaryReader r(payload);
  return r.Read(&out->task_id);
}

std::string TreeIdOnly::Encode() const {
  BinaryWriter w;
  w.Write(tree_id);
  return w.Release();
}

Status TreeIdOnly::Decode(const std::string& payload, TreeIdOnly* out) {
  BinaryReader r(payload);
  return r.Read(&out->tree_id);
}

}  // namespace treeserver
