// Binary (de)serialization of tensors and parameter lists.
//
// Format: little-endian, magic "GFT1", rank, dims, raw float payload. Used
// for model checkpoints (shard snapshots in the optimization module) and for
// shipping client updates through the in-process FL "network". Compressed
// wire records ("GFQ1" int8 quantization, "GFK1" top-k sparsification) share
// the same list framing; the full byte-level spec is docs/wire-format.md.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/annotations.h"
#include "tensor/tensor.h"

namespace goldfish {

/// Write one tensor to a binary stream. Throws on stream failure.
void write_tensor(std::ostream& os, const Tensor& t);

/// Read one tensor from a binary stream. Throws on malformed input.
Tensor read_tensor(std::istream& is);

/// Write a parameter list (e.g. Model::parameters snapshot) to a file.
void save_tensors(const std::string& path, const std::vector<Tensor>& ts);

/// Read a parameter list back. Throws if the file is missing or malformed.
std::vector<Tensor> load_tensors(const std::string& path);

/// Serialize a parameter list into `out` (cleared first, capacity reused) in
/// exactly the bytes save_tensors would write. The FL upload path keeps one
/// such buffer per worker thread so steady-state rounds stop allocating.
GOLDFISH_HOT void serialize_tensors(const std::vector<Tensor>& ts,
                                    std::string& out);

/// Size in bytes of what serialize_tensors writes for `ts` (its reserve).
std::size_t serialized_bytes(const std::vector<Tensor>& ts);

/// Parse a buffer produced by serialize_tensors / save_tensors. Throws on
/// malformed or truncated input.
std::vector<Tensor> deserialize_tensors(const char* data, std::size_t size);

/// Append one "GFT1" tensor record (magic, rank, dims, raw float payload) to
/// `out` *without* the count:u32 list framing — for callers embedding tensor
/// records inside their own containers (the population cold store prefixes a
/// client-state header, then writes dataset tensors record by record).
/// serialize_tensors is exactly this per tensor, so embedded records are
/// byte-identical to list entries.
GOLDFISH_HOT void append_tensor_record(std::string& out, const Tensor& t);

/// Size in bytes of the record append_tensor_record writes for `t`, so a
/// caller can reserve a container's exact size before filling it.
std::size_t tensor_record_bytes(const Tensor& t);

/// Parse one "GFT1" record at `data + *offset`, writing into `t` — storage
/// is reused via Tensor::resize_uninit, so re-reading records of a shape the
/// tensor has already held performs zero heap allocations (the pooled
/// materialization fast path). Advances `*offset` past the record. Throws on
/// malformed or truncated input.
GOLDFISH_HOT void read_tensor_record_into(const char* data, std::size_t size,
                                          std::size_t* offset, Tensor& t);

// -- compressed wire records (docs/wire-format.md) --------------------------
//
// Same list framing as serialize_tensors (count:u32, then one record per
// tensor), but lossy per-tensor payloads. Encoded byte counts are pure
// functions of the tensor *shapes* — never their values — which is what lets
// the FL engine feed byte-true upload sizes to bandwidth-aware clock
// policies before any training has run (fl/policies.h).

/// Int8 per-tensor affine quantization ("GFQ1"): each tensor is stored as
/// its [min, max] range plus one byte per element, q = round((v − min)/s)
/// with s = (max − min)/255. Rounding is std::lround (ties away from zero,
/// independent of the FP rounding mode), so encodings are bit-reproducible
/// across machines. Constant tensors (max == min) decode exactly.
void serialize_quantized(const std::vector<Tensor>& ts, std::string& out);

/// Size in bytes of what serialize_quantized writes for `ts`.
std::size_t quantized_bytes(const std::vector<Tensor>& ts);

/// Parse a "GFQ1" buffer back into dequantized float tensors
/// (v = min + q·s). Throws on malformed or truncated input.
std::vector<Tensor> deserialize_quantized(const char* data, std::size_t size);

/// Top-k magnitude sparsification ("GFK1"): per tensor, keep the
/// topk_count(numel, fraction) entries of largest |v| (ties broken toward
/// the lower flat index, so the kept set is unique) as ascending
/// (index:u32, value:f32) pairs; dropped entries decode to zero.
void serialize_topk(const std::vector<Tensor>& ts, double fraction,
                    std::string& out);

/// Size in bytes of what serialize_topk writes for `ts` at `fraction`.
std::size_t topk_bytes(const std::vector<Tensor>& ts, double fraction);

/// Parse a "GFK1" buffer back into dense tensors (zeros + scatter). Throws
/// on malformed or truncated input (bad magic, k > numel, out-of-range or
/// non-ascending indices).
std::vector<Tensor> deserialize_topk(const char* data, std::size_t size);

/// The k used for one tensor of `numel` elements at `fraction` ∈ (0, 1]:
/// ceil(fraction·numel), at least 1 for non-empty tensors. Shared by the
/// encoder and topk_bytes so the two can never disagree.
long topk_count(long numel, double fraction);

}  // namespace goldfish
