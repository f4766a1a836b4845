package buildtagsfixture

const marker = "zos"
