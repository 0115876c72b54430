package relation

// DecodeCSV lets the external tests, which may import datagen, drive the
// chunked decode at a chosen chunk count.
var DecodeCSV = decodeCSV
