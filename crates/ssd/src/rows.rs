//! Per-page values, kept only for the blocks that have any.
//!
//! The FTL's reverse map holds one value per physical page, but a device
//! life-cycle touches a few dozen of its 2 048 blocks, and a table sized to
//! the array is cleared whole on every build when the allocator hands back
//! a recycled chunk (DESIGN.md §12). [`BlockRows`] gives a block its row of
//! page values when it first needs one and takes the row back when the
//! block is erased, so the cost follows the blocks in use.

/// One row of `width` values per block in use; every other value is zero.
#[derive(Debug)]
pub(crate) struct BlockRows {
    width: usize,
    /// Per block, by dense block index: its row plus one; zero for a block
    /// without one, so a fresh table comes from the allocator zeroed.
    row_of: Vec<u32>,
    values: Vec<u32>,
    /// Per row, the block it belongs to plus one; zero for a row handed
    /// back. Walking it visits only the blocks in use.
    block_of: Vec<u32>,
    /// Rows handed back, zeroed, for the next blocks.
    free: Vec<u32>,
}

impl BlockRows {
    /// No rows, for `blocks` blocks of `width` pages.
    pub(crate) fn new(blocks: usize, width: usize) -> Self {
        BlockRows {
            width,
            row_of: vec![0; blocks],
            values: Vec::new(),
            block_of: Vec::new(),
            free: Vec::new(),
        }
    }

    fn span(&self, row: u32) -> std::ops::Range<usize> {
        let start = row as usize * self.width;
        start..start + self.width
    }

    /// Block `b`'s row, if it has one.
    pub(crate) fn get(&self, b: usize) -> Option<&[u32]> {
        let row = self.row_of[b].checked_sub(1)?;
        Some(&self.values[self.span(row)])
    }

    /// Block `b`'s row, if it has one, to change.
    pub(crate) fn get_mut(&mut self, b: usize) -> Option<&mut [u32]> {
        let row = self.row_of[b].checked_sub(1)?;
        let span = self.span(row);
        Some(&mut self.values[span])
    }

    /// Block `b`'s row, given one (all zero) if it had none.
    pub(crate) fn open(&mut self, b: usize) -> &mut [u32] {
        let row = match self.row_of[b].checked_sub(1) {
            Some(row) => row,
            None => {
                let row = self.free.pop().unwrap_or_else(|| {
                    self.values.resize(self.values.len() + self.width, 0);
                    self.block_of.push(0);
                    self.block_of.len() as u32 - 1
                });
                self.row_of[b] = row + 1;
                self.block_of[row as usize] = b as u32 + 1;
                row
            }
        };
        let span = self.span(row);
        &mut self.values[span]
    }

    /// Takes block `b`'s row back, if it has one: every value reads as zero
    /// again.
    pub(crate) fn release(&mut self, b: usize) {
        if let Some(row) = std::mem::take(&mut self.row_of[b]).checked_sub(1) {
            let span = self.span(row);
            self.values[span].fill(0);
            self.block_of[row as usize] = 0;
            self.free.push(row);
        }
    }

    /// The blocks with a row, in no particular order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = usize> + '_ {
        self.block_of
            .iter()
            .filter_map(|&b| b.checked_sub(1).map(|b| b as usize))
    }

    /// Takes every row back, visiting only the blocks that had one.
    pub(crate) fn clear(&mut self) {
        for &b in &self.block_of {
            if let Some(b) = b.checked_sub(1) {
                self.row_of[b as usize] = 0;
            }
        }
        self.values.clear();
        self.block_of.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_open_on_demand_and_are_reused_zeroed() {
        let mut rows = BlockRows::new(4, 3);
        assert!(rows.get(2).is_none());
        rows.open(2)[1] = 7;
        rows.open(0)[0] = 5;
        assert_eq!(rows.get(2), Some(&[0, 7, 0][..]));
        assert_eq!(rows.values.len(), 6, "two rows for two blocks");
        assert_eq!(rows.blocks().collect::<Vec<_>>(), [2, 0]);
        rows.release(2);
        rows.release(2);
        assert!(rows.get(2).is_none());
        assert_eq!(rows.blocks().collect::<Vec<_>>(), [0]);
        // The freed row is the next one handed out, zeroed.
        assert_eq!(rows.open(3), &[0, 0, 0]);
        assert_eq!(rows.values.len(), 6);
        rows.get_mut(0).unwrap()[2] = 9;
        assert_eq!(rows.get(0), Some(&[5, 0, 9][..]));
        rows.clear();
        assert!((0..4).all(|b| rows.get(b).is_none()));
        assert_eq!(rows.blocks().count(), 0);
        assert_eq!(rows.open(1), &[0, 0, 0]);
    }
}
