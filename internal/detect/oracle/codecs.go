package oracle

import "piileak/internal/encode"

// invertibleCodecs caches the decodable codec names for DecodeDetect.
var invertibleCodecs = encode.Invertible()

func lookupCodec(name string) (encode.Codec, bool) { return encode.Lookup(name) }
