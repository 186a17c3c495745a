// The repo benchmark is a module of its own so that it builds from its
// own directory; the import path keeps the piper/ prefix, which is what
// lets it reach piper/internal/... through the replace below.
module piper/benchmark

go 1.24

require piper v0.0.0

replace piper => ../
