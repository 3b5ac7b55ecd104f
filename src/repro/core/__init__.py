"""Byte caching core: fingerprints, caches, encoder/decoder, policies."""

from .cache import ByteCache, CacheEntry, FingerprintTable, PacketStore
from .decoder import ByteCachingDecoder, DecodeResult, DecodeStatus, DecoderStats
from .encoder import ByteCachingEncoder, EncodeResult, EncoderStats
from .fingerprint import (DEFAULT_WINDOW, DEFAULT_ZERO_BITS, FingerprintScheme,
                          Fingerprinter)
from .polyhash import AnchorSet, PolyFingerprinter
from .rabin import RabinFingerprinter
from .region import Region, expand_match
from .wire import (FIELD_SIZE, MIN_REGION_LENGTH, MissingFingerprintError,
                   WireFormatError, encode_payload, encoded_size, parse_payload,
                   reconstruct, wrap_raw)

__all__ = [
    "ByteCache",
    "CacheEntry",
    "FingerprintTable",
    "PacketStore",
    "ByteCachingDecoder",
    "DecodeResult",
    "DecodeStatus",
    "DecoderStats",
    "ByteCachingEncoder",
    "EncodeResult",
    "EncoderStats",
    "DEFAULT_WINDOW",
    "DEFAULT_ZERO_BITS",
    "FingerprintScheme",
    "Fingerprinter",
    "AnchorSet",
    "PolyFingerprinter",
    "RabinFingerprinter",
    "Region",
    "expand_match",
    "FIELD_SIZE",
    "MIN_REGION_LENGTH",
    "MissingFingerprintError",
    "WireFormatError",
    "encode_payload",
    "encoded_size",
    "parse_payload",
    "reconstruct",
    "wrap_raw",
]
