module partix/benchmark

go 1.22

require partix v0.0.0

replace partix => ../
