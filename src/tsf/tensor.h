#ifndef DEEPLAKE_TSF_TENSOR_H_
#define DEEPLAKE_TSF_TENSOR_H_

#include <memory>
#include <string>

#include "storage/storage.h"
#include "util/thread_annotations.h"
#include "tsf/chunk.h"
#include "tsf/chunk_encoder.h"
#include "tsf/sample.h"
#include "tsf/shape_encoder.h"
#include "tsf/tensor_meta.h"
#include "tsf/tile_encoder.h"

namespace dl::tsf {

/// The stored bytes of one validated, untiled sample: its codec frame under
/// the tensor's sample compression and quality, or, without sample
/// compression (and for empty samples), the sample's own bytes, uncopied.
/// Pure: it touches no tensor state, so any thread may run it.
Result<Slice> EncodeSample(const TensorMeta& meta, const Sample& sample);

/// A tensor's three index maps (§3.4), stored as one object, encoders.bin:
/// an envelope around the length-prefixed chunk encoder, the
/// length-prefixed shape encoder and then the tile encoder.
struct TensorIndex {
  static constexpr char kFileName[] = "encoders.bin";
  ChunkEncoder chunks;
  ShapeEncoder shapes;
  TileEncoder tiles;

  ByteBuffer Serialize() const;
  /// Strict: any mismatch is Corruption. Tensor::Open and dlfsck share it.
  static Result<TensorIndex> Deserialize(Slice object);
};

/// One column of a Deep Lake dataset: a typed, ragged, chunked tensor bound
/// to a storage prefix (paper §3).
///
/// Storage layout under the dataset root:
///   tensors/<name>/tensor_meta.json    (written once, by Create)
///   tensors/<name>/encoders.bin        (the TensorIndex, durable)
///   tensors/<name>/chunks/<hex chunk id>
///
/// Appends buffer into an open chunk; `Flush` seals it and persists the
/// index. Reads see both flushed and buffered samples. Not thread-safe
/// for concurrent writes; concurrent reads are safe after Flush (the
/// streaming dataloader only touches flushed state).
class Tensor {
 public:
  /// Creates a new tensor (fails if one exists at this name).
  static Result<std::unique_ptr<Tensor>> Create(storage::StoragePtr store,
                                                const std::string& name,
                                                const TensorOptions& options);

  /// Opens an existing tensor.
  static Result<std::unique_ptr<Tensor>> Open(storage::StoragePtr store,
                                              const std::string& name);

  const TensorMeta& meta() const { return meta_; }
  const std::string& name() const { return meta_.name; }

  /// Total samples (flushed + buffered in the open chunk).
  uint64_t NumSamples() const;

  /// Appends one sample. Oversized samples (raw bytes > max_chunk_bytes)
  /// are tiled across spatial dimensions unless the htype is exempt
  /// (video). Cheap samples land in the open chunk buffer.
  Status Append(const Sample& sample);

  /// Ingestion fast path (§5): appends a frame already compressed with the
  /// tensor's sample compression, skipping decode+re-encode. `shape` is the
  /// decoded logical shape. InvalidArgument, appending nothing, unless the
  /// frame's header declares exactly shape × dtype raw bytes.
  Status AppendPrecompressed(ByteView frame, const TensorShape& shape);

  /// Replaces sample `index` in place (§3.5 random-access writes:
  /// annotators, model predictions). An index inside the tensor goes
  /// through `UpdateContiguous(index, {sample})`. Writing past the end pads
  /// the gap with empty samples — the sparse/out-of-bounds assignment
  /// behaviour.
  Status Update(uint64_t index, const Sample& sample);

  /// Replaces samples [start, start+samples.size()) in place, rebuilding
  /// each affected chunk ONCE — a per-sample rewrite would be quadratic
  /// over a dense range. All indices must already exist (no sparse tail).
  /// An oversized sample is tiled: its slot in the rebuilt chunk holds an
  /// empty placeholder. The MVCC rebase replay depends on this: its
  /// modified ranges are chunk-granular, so dense whole-chunk rewrites are
  /// the common case.
  Status UpdateContiguous(uint64_t start, const std::vector<Sample>& samples);

  /// Reads one sample. A tiled sample is `ReadRegion` over its full box.
  Result<Sample> Read(uint64_t index);

  /// Reads the box [starts, starts+sizes) of sample `index`, one entry per
  /// dimension, fetching only the tiles it overlaps (an untiled sample is
  /// one tile). InvalidArgument on a rank mismatch; OutOfRange unless
  /// starts[d] + sizes[d] <= shape[d] in every dimension. A region with a
  /// zero size reads no tile and returns an empty sample of that shape.
  Result<Sample> ReadRegion(uint64_t index,
                            const std::vector<uint64_t>& starts,
                            const std::vector<uint64_t>& sizes);

  /// Shape without fetching data (served by the shape encoder).
  Result<TensorShape> ShapeAt(uint64_t index) const;

  /// Seals the open chunk, then persists the index: the chunk lands before
  /// any index names it. Writes nothing when the index holds no change
  /// since it was last persisted.
  Status Flush();

  /// True while the index holds changes Flush has not yet written.
  bool unpersisted() const { return unpersisted_; }

  /// Points the tensor at `store`, which must hold the same objects as the
  /// current one (the next working head after a commit). The index, open
  /// chunk and chunk cache carry over. Not safe while other threads read
  /// the tensor.
  void Rebind(storage::StoragePtr store) { store_ = std::move(store); }

  /// Re-packs fragmented chunks into dense ~max_chunk_bytes chunks
  /// (paper §3.5 "on-the-fly re-chunking algorithm"). Returns the number of
  /// chunks after optimization.
  Result<size_t> Rechunk();

  // ---- Streaming/introspection API (used by the dataloader & benches) ----

  const ChunkEncoder& chunk_encoder() const { return index_.chunks; }
  const ShapeEncoder& shape_encoder() const { return index_.shapes; }
  const TileEncoder& tile_encoder() const { return index_.tiles; }
  storage::StoragePtr store() const { return store_; }

  /// Storage key of a chunk object.
  std::string ChunkKey(uint64_t chunk_id) const;
  std::string MetaKey() const;

  /// Number of samples buffered in the open (unflushed) chunk.
  uint64_t buffered_samples() const { return open_chunk_.num_samples(); }

 private:
  Tensor(storage::StoragePtr store, TensorMeta meta);

  /// True when `sample` must be tiled: raw bytes over max_chunk_bytes and
  /// an htype that allows tiling.
  bool NeedsTiling(const Sample& sample) const;
  /// Writes each tile of `sample` as a chunk of its own and returns the
  /// layout naming them.
  Result<TileLayout> WriteTiles(const Sample& sample);
  /// The packing rule, run before every append to a packed chunk: seals
  /// `builder`'s chunk into `encoder` when a sample of `shape` would push
  /// it past max_chunk_bytes.
  Status SealIfFull(ChunkBuilder& builder, ChunkEncoder& encoder,
                    const TensorShape& shape);
  /// Puts a non-empty builder's chunk and registers it in `encoder`.
  Status SealChunk(ChunkBuilder& builder, ChunkEncoder& encoder);
  /// Serializes `builder` (resetting it), stores the object under a fresh
  /// id and returns the id.
  Result<uint64_t> PutChunk(ChunkBuilder& builder);
  Result<std::shared_ptr<Chunk>> FetchChunk(uint64_t chunk_id);
  /// Writes encoders.bin with one PutDurable.
  Status PersistEncoders();
  /// Deletes chunk objects a landed index no longer refers to.
  Status DeleteChunks(const std::vector<uint64_t>& chunk_ids);

  storage::StoragePtr store_;
  TensorMeta meta_;
  TensorIndex index_;
  ChunkBuilder open_chunk_;
  uint64_t next_chunk_id_ = 0;
  // Set by every change to index_ or the open chunk, cleared once
  // PersistEncoders lands: a tensor with nothing new flushes nothing.
  bool unpersisted_ = false;

  // Single-slot cache of the most recently parsed chunk: sequential reads
  // decode each chunk once. Leaf lock: held only for the slot swap, never
  // across the store fetch or chunk parse.
  mutable Mutex cache_mu_{"tsf.tensor.cache_mu"};
  uint64_t cached_chunk_id_ DL_GUARDED_BY(cache_mu_) = 0;
  std::shared_ptr<Chunk> cached_chunk_ DL_GUARDED_BY(cache_mu_);
};

}  // namespace dl::tsf

#endif  // DEEPLAKE_TSF_TENSOR_H_
