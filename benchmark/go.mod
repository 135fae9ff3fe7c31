module simfs/benchmark

go 1.24

require simfs v0.0.0

replace simfs => ../
