#include "tsf/tensor.h"

#include <algorithm>
#include <atomic>

#include "util/clock.h"
#include "util/coding.h"
#include "util/envelope.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dl::tsf {

namespace {

std::string TensorDir(const std::string& name) {
  return PathJoin("tensors", name);
}

/// Fresh chunk-id base per writing session: the high bits are random (so
/// ids never collide across branches/sessions), the low bits count up (so
/// the chunk encoder's delta coding stays ~1 byte per chunk, §3.4).
uint64_t FreshChunkIdBase() {
  static std::atomic<uint64_t> counter{0};
  uint64_t entropy = static_cast<uint64_t>(NowMicros()) ^
                     (counter.fetch_add(1) << 48);
  return Mix64(entropy) & ~0xFFFFFFull;  // low 24 bits free for the counter
}

}  // namespace

Tensor::Tensor(storage::StoragePtr store, TensorMeta meta)
    : store_(std::move(store)),
      meta_(std::move(meta)),
      open_chunk_(meta_.dtype, meta_.sample_compression,
                  meta_.chunk_compression),
      next_chunk_id_(FreshChunkIdBase()) {}

std::string Tensor::ChunkKey(uint64_t chunk_id) const {
  return PathJoin(TensorDir(meta_.name), "chunks", Hex64(chunk_id));
}

std::string Tensor::MetaKey() const {
  return PathJoin(TensorDir(meta_.name), "tensor_meta.json");
}

Result<std::unique_ptr<Tensor>> Tensor::Create(storage::StoragePtr store,
                                               const std::string& name,
                                               const TensorOptions& options) {
  DL_ASSIGN_OR_RETURN(TensorMeta meta, TensorMeta::FromOptions(name, options));
  std::string meta_key = PathJoin(TensorDir(name), "tensor_meta.json");
  DL_ASSIGN_OR_RETURN(bool exists, store->Exists(meta_key));
  if (exists) {
    return Status::AlreadyExists("tensor '" + name + "' already exists");
  }
  // Written once: every meta field is fixed at creation.
  std::string meta_text = meta.ToJson().Dump(2);
  DL_RETURN_IF_ERROR(
      store->PutDurable(meta_key, ByteView(EnvelopeWrap(ByteView(meta_text)))));
  auto tensor = std::unique_ptr<Tensor>(new Tensor(store, std::move(meta)));
  DL_RETURN_IF_ERROR(tensor->PersistEncoders());
  return tensor;
}

Result<std::unique_ptr<Tensor>> Tensor::Open(storage::StoragePtr store,
                                             const std::string& name) {
  std::string dir = TensorDir(name);
  DL_ASSIGN_OR_RETURN(
      Slice meta_bytes,
      storage::GetVerified(*store, PathJoin(dir, "tensor_meta.json")));
  DL_ASSIGN_OR_RETURN(Json meta_json,
                      Json::Parse(meta_bytes.ToStringView()));
  DL_ASSIGN_OR_RETURN(TensorMeta meta, TensorMeta::FromJson(meta_json));
  auto tensor = std::unique_ptr<Tensor>(new Tensor(store, std::move(meta)));
  DL_ASSIGN_OR_RETURN(
      tensor->index_,
      storage::GetDecoded(*store, PathJoin(dir, TensorIndex::kFileName),
                          TensorIndex::Deserialize));
  return tensor;
}

uint64_t Tensor::NumSamples() const {
  return index_.chunks.num_samples() + open_chunk_.num_samples();
}

Result<Slice> EncodeSample(const TensorMeta& meta, const Sample& sample) {
  if (meta.sample_compression == compress::Compression::kNone ||
      sample.data.empty()) {
    return sample.data;  // stored as is: the sample's own bytes, no copy
  }
  compress::CodecContext ctx = ContextForSample(meta.dtype, sample.shape);
  ctx.quality = meta.quality;
  DL_ASSIGN_OR_RETURN(ByteBuffer frame,
                      compress::CompressBytes(meta.sample_compression,
                                              ByteView(sample.data), ctx));
  return Slice(std::move(frame));
}

Status Tensor::Append(const Sample& sample) {
  DL_RETURN_IF_ERROR(meta_.ValidateSample(sample));
  unpersisted_ = true;
  if (NeedsTiling(sample)) {
    uint64_t index = NumSamples();
    // The sample still occupies one slot in the chunk stream: an empty
    // placeholder keeps the chunk encoder a bijection over sample indices.
    // Room for it is made before the tiles are written, so a failed seal
    // stores no tiles, and a failed tile write appends no placeholder.
    DL_RETURN_IF_ERROR(SealIfFull(open_chunk_, index_.chunks, TensorShape{0}));
    DL_ASSIGN_OR_RETURN(TileLayout layout, WriteTiles(sample));
    open_chunk_.Append(ByteView(), TensorShape{0});
    index_.tiles.Set(index, std::move(layout));
  } else {
    DL_ASSIGN_OR_RETURN(Slice stored, EncodeSample(meta_, sample));
    DL_RETURN_IF_ERROR(SealIfFull(open_chunk_, index_.chunks, sample.shape));
    open_chunk_.Append(stored, sample.shape);
  }
  index_.shapes.Append(sample.shape);
  return Status::OK();
}

Status Tensor::AppendPrecompressed(ByteView frame, const TensorShape& shape) {
  if (meta_.sample_compression == compress::Compression::kNone) {
    return Status::FailedPrecondition(
        "tensor '" + meta_.name +
        "' has no sample compression; precompressed append not applicable");
  }
  // Checked here, where the frame enters: a frame that declares another
  // raw size than its shape would fail every later read of the tensor.
  uint64_t raw_bytes = shape.NumElements() * DTypeSize(meta_.dtype);
  Result<uint64_t> declared =
      compress::GetCodec(meta_.sample_compression)->DeclaredSize(frame);
  if (!declared.ok() || *declared != raw_bytes) {
    return Status::InvalidArgument(
        "tensor '" + meta_.name + "': shape " + shape.ToString() + " needs " +
        std::to_string(raw_bytes) + " bytes, the frame " +
        (declared.ok() ? "declares " + std::to_string(*declared)
                       : declared.status().ToString()));
  }
  unpersisted_ = true;
  DL_RETURN_IF_ERROR(SealIfFull(open_chunk_, index_.chunks, shape));
  open_chunk_.Append(frame, shape);
  index_.shapes.Append(shape);
  return Status::OK();
}

bool Tensor::NeedsTiling(const Sample& sample) const {
  return sample.ExpectedBytes() > meta_.max_chunk_bytes &&
         !meta_.htype.exempt_from_tiling();
}

Status Tensor::SealIfFull(ChunkBuilder& builder, ChunkEncoder& encoder,
                          const TensorShape& shape) {
  // The packing rule (§3.4's upper bound): seal first when this sample's
  // raw size would push the chunk past max_chunk_bytes. Raw, not stored,
  // size: a stored frame's size is only known after encoding, and counting
  // raw bytes lays chunks out the same whichever path wrote them.
  uint64_t raw_bytes = shape.NumElements() * DTypeSize(meta_.dtype);
  if (!builder.empty() &&
      builder.payload_bytes() + raw_bytes > meta_.max_chunk_bytes) {
    return SealChunk(builder, encoder);
  }
  return Status::OK();
}

Result<TileLayout> Tensor::WriteTiles(const Sample& sample) {
  size_t dtype_size = DTypeSize(meta_.dtype);
  TileLayout layout =
      ComputeTileLayout(sample.shape, dtype_size, meta_.max_chunk_bytes);
  layout.chunk_ids.reserve(layout.num_tiles());
  std::vector<uint64_t> coord(layout.grid.size(), 0);
  const std::vector<uint64_t> zeros(coord.size(), 0);
  ChunkBuilder builder(meta_.dtype, meta_.sample_compression,
                       meta_.chunk_compression);
  do {
    TensorShape tile_shape = layout.TileShapeAt(coord);
    ByteBuffer tile(tile_shape.NumElements() * dtype_size);
    CopyBox(sample.data.data(), sample.shape, layout.TileOrigin(coord),
            tile.data(), tile_shape, zeros, tile_shape.dims(), dtype_size);
    DL_ASSIGN_OR_RETURN(
        Slice stored,
        EncodeSample(meta_, Sample(meta_.dtype, tile_shape, std::move(tile))));
    builder.Append(stored, tile_shape);
    DL_ASSIGN_OR_RETURN(uint64_t id, PutChunk(builder));
    layout.chunk_ids.push_back(id);
  } while (NextCoord(coord, layout.grid));
  return layout;
}

Result<uint64_t> Tensor::PutChunk(ChunkBuilder& builder) {
  DL_ASSIGN_OR_RETURN(ByteBuffer obj, builder.Finish());
  uint64_t id = next_chunk_id_++;
  DL_RETURN_IF_ERROR(store_->Put(ChunkKey(id), ByteView(obj)));
  return id;
}

Status Tensor::SealChunk(ChunkBuilder& builder, ChunkEncoder& encoder) {
  if (builder.empty()) return Status::OK();
  uint64_t count = builder.num_samples();
  DL_ASSIGN_OR_RETURN(uint64_t id, PutChunk(builder));
  encoder.AddChunk(id, count);
  return Status::OK();
}

Status Tensor::Flush() {
  if (!unpersisted_) return Status::OK();
  DL_RETURN_IF_ERROR(SealChunk(open_chunk_, index_.chunks));
  return PersistEncoders();
}

Status Tensor::PersistEncoders() {
  DL_RETURN_IF_ERROR(store_->PutDurable(
      PathJoin(TensorDir(meta_.name), TensorIndex::kFileName),
      ByteView(index_.Serialize())));
  unpersisted_ = false;
  return Status::OK();
}

ByteBuffer TensorIndex::Serialize() const {
  ByteBuffer payload;
  for (const ByteBuffer& part : {chunks.Serialize(), shapes.Serialize()}) {
    PutVarint64(payload, part.size());
    AppendBytes(payload, ByteView(part));
  }
  AppendBytes(payload, ByteView(tiles.Serialize()));
  return EnvelopeWrap(ByteView(payload));
}

Result<TensorIndex> TensorIndex::Deserialize(Slice object) {
  DL_ASSIGN_OR_RETURN(Slice payload, EnvelopeUnwrap(std::move(object)));
  Decoder dec{ByteView(payload)};
  auto part = [&dec]() -> Result<ByteView> {
    DL_ASSIGN_OR_RETURN(uint64_t size, dec.GetVarint64());
    return dec.GetBytes(size);
  };
  TensorIndex index;
  DL_ASSIGN_OR_RETURN(ByteView chunks, part());
  DL_ASSIGN_OR_RETURN(index.chunks, ChunkEncoder::Deserialize(chunks));
  DL_ASSIGN_OR_RETURN(ByteView shapes, part());
  DL_ASSIGN_OR_RETURN(index.shapes, ShapeEncoder::Deserialize(shapes));
  DL_ASSIGN_OR_RETURN(ByteView tiles, dec.GetBytes(dec.remaining()));
  DL_ASSIGN_OR_RETURN(index.tiles, TileEncoder::Deserialize(tiles));
  // The three maps cover one row range; a mismatch would let a read name
  // a row no chunk holds.
  uint64_t rows = index.chunks.num_samples();
  if (index.shapes.num_samples() != rows || index.tiles.end_index() > rows) {
    return Status::Corruption(
        "tensor index: " + std::to_string(rows) + " chunked rows, " +
        std::to_string(index.shapes.num_samples()) + " shapes, tiles up to " +
        std::to_string(index.tiles.end_index()));
  }
  return index;
}

Result<std::shared_ptr<Chunk>> Tensor::FetchChunk(uint64_t chunk_id) {
  {
    MutexLock lock(cache_mu_);
    if (cached_chunk_ && cached_chunk_id_ == chunk_id) return cached_chunk_;
  }
  DL_ASSIGN_OR_RETURN(
      Chunk chunk,
      storage::GetDecoded(*store_, ChunkKey(chunk_id), [](Slice bytes) {
        return Chunk::Parse(std::move(bytes));
      }));
  auto ptr = std::make_shared<Chunk>(std::move(chunk));
  {
    MutexLock lock(cache_mu_);
    cached_chunk_id_ = chunk_id;
    cached_chunk_ = ptr;
  }
  return ptr;
}

Result<TensorShape> Tensor::ShapeAt(uint64_t index) const {
  return index_.shapes.At(index);
}

Result<Sample> Tensor::Read(uint64_t index) {
  if (index >= NumSamples()) {
    return Status::OutOfRange("tensor '" + meta_.name + "': index " +
                              std::to_string(index) + " beyond length " +
                              std::to_string(NumSamples()));
  }
  if (const TileLayout* layout = index_.tiles.Get(index)) {
    const TensorShape& full = layout->sample_shape;
    return ReadRegion(index, std::vector<uint64_t>(full.ndim(), 0),
                      full.dims());
  }
  uint64_t flushed = index_.chunks.num_samples();
  if (index >= flushed) {
    return open_chunk_.ReadBuffered(index - flushed);
  }
  DL_ASSIGN_OR_RETURN(ChunkEncoder::Location loc, index_.chunks.Find(index));
  DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk, FetchChunk(loc.chunk_id));
  return chunk->ReadSample(loc.local_index);
}

Result<Sample> Tensor::ReadRegion(uint64_t index,
                                  const std::vector<uint64_t>& starts,
                                  const std::vector<uint64_t>& sizes) {
  DL_ASSIGN_OR_RETURN(TensorShape full, ShapeAt(index));
  size_t ndim = full.ndim();
  if (starts.size() != ndim || sizes.size() != ndim) {
    return Status::InvalidArgument("region rank mismatch");
  }
  for (size_t d = 0; d < ndim; ++d) {
    if (starts[d] > full[d] || sizes[d] > full[d] - starts[d]) {
      return Status::OutOfRange("region exceeds sample bounds in dim " +
                                std::to_string(d));
    }
  }
  size_t dtype_size = DTypeSize(meta_.dtype);
  TensorShape region_shape(sizes);
  // Tiles are copied into one staging allocation, then sealed into the
  // result's immutable Slice.
  ByteBuffer staging(region_shape.NumElements() * dtype_size);
  if (staging.empty()) {  // a zero-size region reads nothing
    return Sample(meta_.dtype, region_shape, Slice(std::move(staging)));
  }

  // An untiled sample is a one-tile grid whose tile is the stored sample.
  const TileLayout* tiled = index_.tiles.Get(index);
  TileLayout whole{full, full.dims(), std::vector<uint64_t>(ndim, 1), {}};
  const TileLayout& layout = tiled != nullptr ? *tiled : whole;
  std::vector<uint64_t> coord(ndim, 0), src_origin(ndim), dst_origin(ndim),
      extent(ndim);
  uint64_t t = 0;
  do {
    // Intersect the tile with the region; skip the tile when it is empty.
    std::vector<uint64_t> origin = layout.TileOrigin(coord);
    TensorShape tile_shape = layout.TileShapeAt(coord);
    bool overlaps = true;
    for (size_t d = 0; d < ndim && overlaps; ++d) {
      uint64_t lo = std::max(origin[d], starts[d]);
      uint64_t hi = std::min(origin[d] + tile_shape[d], starts[d] + sizes[d]);
      overlaps = lo < hi;
      src_origin[d] = lo - origin[d];
      dst_origin[d] = lo - starts[d];
      extent[d] = hi - lo;
    }
    if (overlaps) {
      Sample tile;
      if (tiled == nullptr) {
        DL_ASSIGN_OR_RETURN(tile, Read(index));
      } else {
        DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk,
                            FetchChunk(layout.chunk_ids[t]));
        DL_ASSIGN_OR_RETURN(tile, chunk->ReadSample(0));
      }
      if (!(tile.shape == tile_shape)) {
        return Status::Corruption("tensor '" + meta_.name + "' sample " +
                                  std::to_string(index) + ": stored shape " +
                                  tile.shape.ToString() + ", expected " +
                                  tile_shape.ToString());
      }
      CopyBox(tile.data.data(), tile_shape, src_origin, staging.data(),
              region_shape, dst_origin, extent, dtype_size);
    }
    ++t;
  } while (NextCoord(coord, layout.grid));
  return Sample(meta_.dtype, region_shape, Slice(std::move(staging)));
}

Status Tensor::Update(uint64_t index, const Sample& sample) {
  uint64_t n = NumSamples();
  if (index < n) return UpdateContiguous(index, {sample});
  // Sparse out-of-bounds assignment (§3.5): pad then append. Validated
  // before padding, so a bad sample leaves the tensor as it was.
  DL_RETURN_IF_ERROR(meta_.ValidateSample(sample));
  for (uint64_t i = n; i < index; ++i) {
    DL_RETURN_IF_ERROR(Append(Sample::EmptyOf(meta_.dtype)));
  }
  return Append(sample);
}

Status Tensor::UpdateContiguous(uint64_t start,
                                const std::vector<Sample>& samples) {
  if (samples.empty()) return Status::OK();
  uint64_t n = NumSamples();
  if (start >= n || samples.size() > n - start) {
    return Status::OutOfRange("UpdateContiguous range [" +
                              std::to_string(start) + ", " +
                              std::to_string(start + samples.size()) +
                              ") exceeds tensor length " + std::to_string(n));
  }
  for (const auto& s : samples) {
    DL_RETURN_IF_ERROR(meta_.ValidateSample(s));
  }
  uint64_t end = start + samples.size();
  // Updates operate on sealed chunks, and the index written below must
  // name every row its shape encoder does, so the open chunk is sealed
  // even when the range lies inside the sealed rows.
  unpersisted_ = true;
  DL_RETURN_IF_ERROR(SealChunk(open_chunk_, index_.chunks));

  ChunkBuilder builder(meta_.dtype, meta_.sample_compression,
                       meta_.chunk_compression);
  std::vector<uint64_t> replaced;  // chunk and tile ids nothing refers to
  uint64_t index = start;
  while (index < end) {
    DL_ASSIGN_OR_RETURN(ChunkEncoder::Location loc, index_.chunks.Find(index));
    // Rebuild this chunk once with every in-range sample it holds. Samples
    // out of range are copied as stored, never decoded or re-encoded. An
    // oversized sample keeps an empty placeholder slot; its tiles are
    // chunks of their own.
    uint64_t take =
        std::min<uint64_t>(end - index, loc.chunk_samples - loc.local_index);
    DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk, FetchChunk(loc.chunk_id));
    std::vector<std::pair<uint64_t, TileLayout>> tiled;
    for (uint64_t j = 0; j < loc.chunk_samples; ++j) {
      uint64_t global = loc.chunk_first + j;
      if (global < index || global >= index + take) {
        DL_ASSIGN_OR_RETURN(Slice kept, chunk->StoredBytes(j));
        builder.Append(kept, chunk->header().shapes[j]);
        continue;
      }
      const Sample& s = samples[global - start];
      if (NeedsTiling(s)) {
        DL_ASSIGN_OR_RETURN(TileLayout layout, WriteTiles(s));
        tiled.emplace_back(global, std::move(layout));
        builder.Append(ByteView(), TensorShape{0});
      } else {
        DL_ASSIGN_OR_RETURN(Slice stored, EncodeSample(meta_, s));
        builder.Append(stored, s.shape);
      }
    }
    DL_ASSIGN_OR_RETURN(uint64_t new_id, PutChunk(builder));
    DL_RETURN_IF_ERROR(
        index_.chunks.ReplaceChunkId(loc.chunk_ordinal, new_id));
    replaced.push_back(loc.chunk_id);
    {
      MutexLock lock(cache_mu_);
      cached_chunk_.reset();  // invalidate
    }
    for (uint64_t i = index; i < index + take; ++i) {
      if (const TileLayout* old = index_.tiles.Get(i)) {
        replaced.insert(replaced.end(), old->chunk_ids.begin(),
                        old->chunk_ids.end());
      }
      index_.tiles.Remove(i);
      DL_RETURN_IF_ERROR(index_.shapes.Set(i, samples[i - start].shape));
    }
    for (auto& [i, layout] : tiled) index_.tiles.Set(i, std::move(layout));
    index += take;
  }
  DL_RETURN_IF_ERROR(PersistEncoders());
  return DeleteChunks(replaced);
}

Status Tensor::DeleteChunks(const std::vector<uint64_t>& chunk_ids) {
  // Run only after the index that drops them has landed: a crash in
  // between leaves dead bytes, never a dangling reference. A versioned
  // store skips keys that sealed commits own.
  for (uint64_t id : chunk_ids) {
    DL_RETURN_IF_ERROR(store_->Delete(ChunkKey(id)));
  }
  return Status::OK();
}

Result<size_t> Tensor::Rechunk() {
  DL_RETURN_IF_ERROR(Flush());
  unpersisted_ = true;
  // Re-pack every stored sample, in order, under the append path's packing
  // rule. Frames are copied from the CRC-verified chunks, never decoded or
  // re-encoded; a tiled sample's empty placeholder is copied like any other.
  ChunkEncoder packed;
  ChunkBuilder builder(meta_.dtype, meta_.sample_compression,
                       meta_.chunk_compression);
  uint64_t first = 0;
  for (const ChunkEntry& entry : index_.chunks.entries()) {
    DL_ASSIGN_OR_RETURN(std::shared_ptr<Chunk> chunk,
                        FetchChunk(entry.chunk_id));
    if (chunk->num_samples() != entry.last_index + 1 - first) {
      return Status::Corruption("tensor '" + meta_.name + "': chunk " +
                                Hex64(entry.chunk_id) +
                                " disagrees with the chunk encoder");
    }
    for (size_t j = 0; j < chunk->num_samples(); ++j) {
      const TensorShape& shape = chunk->header().shapes[j];
      DL_ASSIGN_OR_RETURN(Slice stored, chunk->StoredBytes(j));
      DL_RETURN_IF_ERROR(SealIfFull(builder, packed, shape));
      builder.Append(stored, shape);
    }
    first = entry.last_index + 1;
  }
  DL_RETURN_IF_ERROR(SealChunk(builder, packed));
  std::vector<uint64_t> replaced;
  for (const ChunkEntry& entry : index_.chunks.entries()) {
    replaced.push_back(entry.chunk_id);
  }
  index_.chunks = std::move(packed);
  {
    MutexLock lock(cache_mu_);
    cached_chunk_.reset();
  }
  DL_RETURN_IF_ERROR(PersistEncoders());
  DL_RETURN_IF_ERROR(DeleteChunks(replaced));
  return index_.chunks.num_chunks();
}

}  // namespace dl::tsf
