package serve

// DecodeFast exposes the fast body decoder to the external tests.
var DecodeFast = decodeFast
