// Test-only reference implementations of the LZ77 and image codecs: the
// straightforward byte-at-a-time versions the fast codecs in src/compress
// replaced. They define the frame format by example. Tests compare the
// fast codecs against them byte for byte, in both directions, on valid and
// hostile frames.

#ifndef DEEPLAKE_TESTS_REFERENCE_CODEC_H_
#define DEEPLAKE_TESTS_REFERENCE_CODEC_H_

#include "compress/codec.h"
#include "util/bytes.h"
#include "util/result.h"

namespace dl::compress::reference {

/// `c` must be kLz77, kImage or kImageLossy.
Result<ByteBuffer> Compress(Compression c, ByteView raw,
                            const CodecContext& ctx = {});
Result<ByteBuffer> Decompress(Compression c, ByteView frame);

/// The Paeth predictor as the PNG specification writes it.
uint8_t Paeth(uint8_t left, uint8_t up, uint8_t upleft);

}  // namespace dl::compress::reference

#endif  // DEEPLAKE_TESTS_REFERENCE_CODEC_H_
